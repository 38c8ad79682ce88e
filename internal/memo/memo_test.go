package memo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// anyBlob accepts every blob: these tests store opaque bytes.
func anyBlob([]byte) bool { return true }

func TestMemoryRoundTrip(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("aaaa", anyBlob); ok {
		t.Fatal("hit on empty store")
	}
	s.Put("aaaa", []byte("blob-a"))
	got, ok := s.Get("aaaa", anyBlob)
	if !ok || !bytes.Equal(got, []byte("blob-a")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	s, err := Open(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k1", []byte("1"))
	s.Put("k2", []byte("2"))
	s.Get("k1", anyBlob) // refresh: k2 is now coldest
	s.Put("k3", []byte("3"))
	if _, ok := s.Get("k2", anyBlob); ok {
		t.Fatal("coldest entry survived eviction")
	}
	for _, k := range []string{"k1", "k3"} {
		if _, ok := s.Get(k, anyBlob); !ok {
			t.Fatalf("%s evicted; want k2 evicted", k)
		}
	}
}

func TestMemoryByteBound(t *testing.T) {
	s, err := Open(Config{MaxEntries: 100})
	if err != nil {
		t.Fatal(err)
	}
	s.maxBytes = 10
	s.Put("big1", make([]byte, 8))
	s.Put("big2", make([]byte, 8))
	if _, ok := s.Get("big1", anyBlob); ok {
		t.Fatal("byte bound not enforced")
	}
	if _, ok := s.Get("big2", anyBlob); !ok {
		t.Fatal("newest entry evicted")
	}
}

// TestPutReplacesStaleBlob: different bytes under a stored key replace
// the stored blob in both tiers (a caller re-Puts only after the stored
// blob failed to decode), while an equal re-Put only refreshes recency.
func TestPutReplacesStaleBlob(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("5ca1e", []byte("stale"))
	s1.Put("5ca1e", []byte("fresh blob"))
	if got, ok := s1.Get("5ca1e", anyBlob); !ok || !bytes.Equal(got, []byte("fresh blob")) {
		t.Fatalf("memory tier: Get = %q, %v; want the replacement", got, ok)
	}
	s1.Put("5ca1e", []byte("fresh blob"))
	st := s1.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("fresh blob")) {
		t.Fatalf("memory accounting after replace: %+v", st)
	}
	if st.Disk == nil || st.Disk.Entries != 1 || st.Disk.Bytes != int64(len("fresh blob")+sumLen) {
		t.Fatalf("disk accounting after replace: %+v", st.Disk)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("5ca1e", anyBlob); !ok || !bytes.Equal(got, []byte("fresh blob")) {
		t.Fatalf("disk tier: Get = %q, %v; want the replacement", got, ok)
	}
}

// TestGetRejectedBlobIsMiss: a blob the caller's accept refuses counts
// as a miss, not a hit, in the tier it came from, and is dropped from
// both tiers, so a later Get finds nothing to re-read; a Put then
// stores the replacement as usual.
func TestGetRejectedBlobIsMiss(t *testing.T) {
	reject := func([]byte) bool { return false }
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("01d", []byte("old format"))
	if _, ok := s1.Get("01d", reject); ok {
		t.Fatal("memory tier: a rejected blob was returned")
	}
	if st := s1.Stats(); st.MemHits != 0 || st.Misses != 1 || st.Entries != 0 || st.Disk.Entries != 0 {
		t.Fatalf("memory tier after reject: %+v, disk %+v; want 0 hits, 1 miss, both tiers empty", st, *st.Disk)
	}
	s1.Put("01d", []byte("old format"))
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("01d", reject); ok {
		t.Fatal("disk tier: a rejected blob was returned")
	}
	if st := s2.Stats(); st.DiskHits != 0 || st.Misses != 1 || st.Entries != 0 || st.Disk.Entries != 0 {
		t.Fatalf("disk tier after reject: %+v, disk %+v; want 0 disk hits, 1 miss, both tiers empty", st, *st.Disk)
	}
	if _, ok := s2.Get("01d", anyBlob); ok {
		t.Fatal("a rejected blob was still stored")
	}
	s2.Put("01d", []byte("new format"))
	if got, ok := s2.Get("01d", anyBlob); !ok || !bytes.Equal(got, []byte("new format")) {
		t.Fatalf("Get after the replacing Put = %q, %v", got, ok)
	}
}

func TestDiskRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("cafe01", []byte("persisted"))
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("cafe01", anyBlob)
	if !ok || !bytes.Equal(got, []byte("persisted")) {
		t.Fatalf("after restart: Get = %q, %v", got, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("want 1 disk hit, stats = %+v", st)
	}
	// The hit was promoted: a second Get is a memory hit.
	s2.Get("cafe01", anyBlob)
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("promotion failed, stats = %+v", st)
	}
}

func TestDiskSurvivesMissingIndex(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(Config{Dir: dir})
	s1.Put("cafe02", []byte("orphan"))
	// No Close: simulate a crash before the index flush.
	os.Remove(filepath.Join(dir, indexName))

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("cafe02", anyBlob); !ok || !bytes.Equal(got, []byte("orphan")) {
		t.Fatalf("orphaned blob not adopted: %q, %v", got, ok)
	}
}

func TestDiskCorruptionIsMissThenRepaired(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(Config{Dir: dir})
	s1.Put("dead01", []byte("will be truncated"))
	s1.Close()

	// Truncate the blob below its checksum — a torn write.
	path := filepath.Join(dir, "dead01"+blobSuffix)
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("dead01", anyBlob); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if st := s2.Stats(); st.Disk == nil || st.Disk.Corrupt != 1 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt blob file not removed")
	}
	// The next Put repairs the entry.
	s2.Put("dead01", []byte("repaired"))
	s2.Close()
	s3, _ := Open(Config{Dir: dir})
	if got, ok := s3.Get("dead01", anyBlob); !ok || !bytes.Equal(got, []byte("repaired")) {
		t.Fatalf("repair failed: %q, %v", got, ok)
	}
}

func TestDiskBitRotIsMiss(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(Config{Dir: dir})
	s1.Put("beef01", []byte("payload"))
	s1.Close()
	path := filepath.Join(dir, "beef01"+blobSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(Config{Dir: dir})
	if _, ok := s2.Get("beef01", anyBlob); ok {
		t.Fatal("bit-rotted blob served as a hit")
	}
}

func TestDiskEvictionRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.disk.maxEntries = 2
	for i := 0; i < 4; i++ {
		s.Put(fmt.Sprintf("ev%02d", i), []byte("x"))
	}
	s.Close()
	dents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	blobs := 0
	for _, de := range dents {
		if filepath.Ext(de.Name()) == blobSuffix {
			blobs++
		}
	}
	if blobs != 2 {
		t.Fatalf("want 2 blob files after eviction, have %d", blobs)
	}
	st := s.Stats()
	if st.Disk == nil || st.Disk.Evictions != 2 {
		t.Fatalf("evictions not counted: %+v", st)
	}
}

func TestOpenUnusableDirDegrades(t *testing.T) {
	dir := t.TempDir()
	// A regular file where the cache dir should be: MkdirAll fails even
	// for root, unlike permission bits.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: filepath.Join(blocker, "cache")})
	if err == nil {
		t.Fatal("want an error for an unusable dir")
	}
	if s == nil {
		t.Fatal("want a degraded memory-only store alongside the error")
	}
	s.Put("aa", []byte("mem-only"))
	if got, ok := s.Get("aa", anyBlob); !ok || !bytes.Equal(got, []byte("mem-only")) {
		t.Fatalf("degraded store broken: %q %v", got, ok)
	}
}

func TestInvalidKeysNeverTouchDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("../escape", []byte("nope"))
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape"+blobSuffix)); err == nil {
		t.Fatal("key escaped the cache directory")
	}
}
