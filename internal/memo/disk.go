package memo

import (
	"container/list"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Disk is the persistent tier: one checksummed file per blob under a
// flat directory, plus an LRU index file so recency survives restarts.
//
// File format: payload followed by a 32-byte SHA-256 of the payload.
// Truncation and bit rot both fail the checksum, and a failed checksum
// is served as a miss — the corrupt file is removed so the next Put
// repairs the entry (DESIGN.md §15). Writes are tmp + rename, so a
// crash mid-write leaves at worst an orphaned .tmp file, never a
// half-written blob under a live name.
type Disk struct {
	mu         sync.Mutex
	dir        string
	maxEntries int
	maxBytes   int64
	ll         *list.List // of *diskEntry; front = most recently used
	byKey      map[string]*list.Element
	bytes      int64
	dirty      bool // index file out of date

	hits      uint64
	misses    uint64
	corrupt   uint64
	evictions uint64
	writeErrs uint64
}

type diskEntry struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

const (
	blobSuffix = ".blob"
	indexName  = "index.json"
	sumLen     = sha256.Size
)

// OpenDisk opens (creating if needed) a disk tier rooted at dir,
// bounded to diskMaxEntries blobs of diskMaxBytes in all. The
// directory must be writable: a probe file is created and removed at
// open so an unusable dir fails here, at startup, rather than silently
// on the first Put. Blobs already present are adopted;
// the index file, when readable, restores their LRU order, and files
// missing from it are appended coldest-last.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: open disk tier: %w", err)
	}
	probe := filepath.Join(dir, ".probe.tmp")
	if err := os.WriteFile(probe, nil, 0o644); err != nil {
		return nil, fmt.Errorf("memo: disk tier not writable: %w", err)
	}
	os.Remove(probe)

	d := &Disk{
		dir:        dir,
		maxEntries: diskMaxEntries,
		maxBytes:   diskMaxBytes,
		ll:         list.New(),
		byKey:      make(map[string]*list.Element),
	}
	d.load()
	return d, nil
}

// load rebuilds the in-memory index: the index file first (preserving
// LRU order), then a directory sweep adopting blobs the index missed
// and dropping index rows whose file vanished. Callers own d before it
// is shared, so no lock is needed.
func (d *Disk) load() {
	onDisk := make(map[string]int64)
	dents, err := os.ReadDir(d.dir) // sorted by name: deterministic adoption order
	if err == nil {
		for _, de := range dents {
			name := de.Name()
			if de.IsDir() || !strings.HasSuffix(name, blobSuffix) {
				continue
			}
			info, err := de.Info()
			if err != nil {
				continue
			}
			onDisk[strings.TrimSuffix(name, blobSuffix)] = info.Size()
		}
	}
	if raw, err := os.ReadFile(filepath.Join(d.dir, indexName)); err == nil {
		var idx []diskEntry
		if json.Unmarshal(raw, &idx) == nil {
			for _, ent := range idx {
				size, ok := onDisk[ent.Key]
				if !ok || size != ent.Size {
					// Vanished or resized behind our back: drop the row;
					// a mismatched survivor will fail its checksum on Get.
					continue
				}
				d.adopt(ent.Key, size)
				delete(onDisk, ent.Key)
			}
		}
	}
	// Blobs the index did not know (crash before Flush): adopt as
	// coldest, in the directory's sorted order.
	if len(onDisk) > 0 {
		keys := make([]string, 0, len(onDisk))
		for _, de := range dents {
			name := de.Name()
			key := strings.TrimSuffix(name, blobSuffix)
			if _, ok := onDisk[key]; ok && strings.HasSuffix(name, blobSuffix) {
				keys = append(keys, key)
			}
		}
		for _, key := range keys {
			d.adopt(key, onDisk[key])
		}
		d.dirty = true
	}
}

// adopt appends one known-on-disk blob at the cold end of the LRU.
func (d *Disk) adopt(key string, size int64) {
	if !validKey(key) {
		return
	}
	if _, ok := d.byKey[key]; ok {
		return
	}
	d.byKey[key] = d.ll.PushBack(&diskEntry{Key: key, Size: size})
	d.bytes += size
}

// validKey restricts keys to hex-style names so a key can never
// traverse outside the cache directory.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (d *Disk) path(key string) string { return filepath.Join(d.dir, key+blobSuffix) }

// Get returns the payload stored under key, verifying its checksum. A
// corrupt or truncated file counts as a miss and is removed so the
// entry can be repaired by the next Put.
func (d *Disk) Get(key string) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.byKey[key]
	if !ok {
		d.misses++
		return nil, false
	}
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		d.dropLocked(el, false)
		d.misses++
		return nil, false
	}
	payload, ok := checkBlob(raw)
	if !ok {
		d.corrupt++
		d.dropLocked(el, true)
		d.misses++
		return nil, false
	}
	d.ll.MoveToFront(el)
	d.dirty = true
	d.hits++
	return payload, true
}

// remove drops the entry under key and its file.
func (d *Disk) remove(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.byKey[key]; ok {
		d.dropLocked(el, true)
	}
}

// checkBlob splits raw into payload and checksum and verifies them.
func checkBlob(raw []byte) ([]byte, bool) {
	if len(raw) < sumLen {
		return nil, false
	}
	payload := raw[:len(raw)-sumLen]
	sum := sha256.Sum256(payload)
	if subtle.ConstantTimeCompare(sum[:], raw[len(raw)-sumLen:]) != 1 {
		return nil, false
	}
	return payload, true
}

// Put writes payload under key atomically (tmp + rename), replacing
// any blob already stored there, and evicts past the tier's bounds.
// Write failures are absorbed — the tier degrades to whatever it
// already holds — and counted.
func (d *Disk) Put(key string, payload []byte) {
	if !validKey(key) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sum := sha256.Sum256(payload)
	raw := make([]byte, 0, len(payload)+sumLen)
	raw = append(raw, payload...)
	raw = append(raw, sum[:]...)
	tmp := d.path(key) + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		d.writeErrs++
		return
	}
	if err := os.Rename(tmp, d.path(key)); err != nil {
		os.Remove(tmp)
		d.writeErrs++
		return
	}
	if el, ok := d.byKey[key]; ok {
		d.dropLocked(el, false)
	}
	d.byKey[key] = d.ll.PushFront(&diskEntry{Key: key, Size: int64(len(raw))})
	d.bytes += int64(len(raw))
	d.dirty = true
	for d.ll.Len() > 1 && (d.ll.Len() > d.maxEntries || d.bytes > d.maxBytes) {
		d.evictions++
		d.dropLocked(d.ll.Back(), true)
	}
}

// dropLocked removes an entry (and optionally its file). Callers hold
// d.mu.
func (d *Disk) dropLocked(el *list.Element, removeFile bool) {
	ent := el.Value.(*diskEntry)
	d.ll.Remove(el)
	delete(d.byKey, ent.Key)
	d.bytes -= ent.Size
	d.dirty = true
	if removeFile {
		os.Remove(d.path(ent.Key))
	}
}

// Flush writes the LRU index file (atomic tmp + rename) if anything
// changed since the last flush. The index is advisory: load reconciles
// it against the actual directory, so a stale or missing index costs
// recency, never correctness.
func (d *Disk) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushLocked()
}

func (d *Disk) flushLocked() error {
	if !d.dirty {
		return nil
	}
	idx := make([]diskEntry, 0, d.ll.Len())
	for el := d.ll.Front(); el != nil; el = el.Next() {
		idx = append(idx, *el.Value.(*diskEntry))
	}
	raw, err := json.MarshalIndent(idx, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.dir, indexName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, indexName)); err != nil {
		os.Remove(tmp)
		return err
	}
	d.dirty = false
	return nil
}

// Close flushes the index. The tier holds no other resources.
func (d *Disk) Close() error { return d.Flush() }

// DiskStats is the read-side counter block for one disk tier.
type DiskStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Corrupt   uint64 `json:"corrupt"`
	Evictions uint64 `json:"evictions"`
	WriteErrs uint64 `json:"write_errs"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// Stats snapshots the tier's counters and sizes.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Hits:      d.hits,
		Misses:    d.misses,
		Corrupt:   d.corrupt,
		Evictions: d.evictions,
		WriteErrs: d.writeErrs,
		Entries:   d.ll.Len(),
		Bytes:     d.bytes,
	}
}
