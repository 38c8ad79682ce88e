package memo

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDiskBlob writes arbitrary bytes where the disk tier keeps its
// state: as index.json, as the blob file of a key Put never wrote, and
// as a truncation and a one-bit flip of blobs that Put did write.
// OpenDisk and Get must never panic, and Get returns either the exact
// payload Put stored under the key or a miss: an untouched blob always
// comes back whole, a damaged one never does, and a foreign blob is
// served only if it carries its own payload's checksum. A Put after a
// miss repairs the entry.
func FuzzDiskBlob(f *testing.F) {
	f.Add([]byte("payload"), []byte(`[{"key":"good","size":39}]`), []byte("garbage"), uint32(5), uint32(17))
	f.Fuzz(func(t *testing.T, payload, index, foreign []byte, cut, flip uint32) {
		dir := t.TempDir()
		d, err := OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"good", "cut", "flip"} {
			d.Put(key, payload)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		write := func(name string, b []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		stored, err := os.ReadFile(d.path("good"))
		if err != nil {
			t.Fatal(err)
		}
		write(indexName, index)
		write("foreign"+blobSuffix, foreign)
		write("cut"+blobSuffix, stored[:int(cut)%len(stored)])
		bit := int(flip) % (8 * len(stored))
		flipped := bytes.Clone(stored)
		flipped[bit/8] ^= 1 << (bit % 8)
		write("flip"+blobSuffix, flipped)

		d, err = OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := d.Get("good"); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("untouched blob: Get = %q, %v; want %q", got, ok, payload)
		}
		if got, ok := d.Get("cut"); ok {
			t.Fatalf("blob truncated to %d of %d bytes served %q", int(cut)%len(stored), len(stored), got)
		}
		if got, ok := d.Get("flip"); ok {
			t.Fatalf("blob with bit %d flipped served %q", bit, got)
		}
		if got, ok := d.Get("foreign"); ok {
			if want, valid := checkBlob(foreign); !valid || !bytes.Equal(got, want) {
				t.Fatalf("foreign blob %q served %q", foreign, got)
			}
		}
		d.Put("flip", payload)
		if got, ok := d.Get("flip"); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("re-Put after a miss: Get = %q, %v; want %q", got, ok, payload)
		}
	})
}
