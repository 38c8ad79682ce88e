// Package memo is the content-addressed blob store behind the reuse
// stack (DESIGN.md §15): an in-memory LRU front tier over an optional
// disk tier of checksummed files. Keys are caller-derived content
// hashes (hgw.CacheKey for whole runs, hgw.ShardKey for fleet shards),
// so a hit is byte-identical reuse by construction — the store never
// interprets blobs, it only moves them.
//
// The package is deterministic on the read/compute path — no wall
// clock, no global rand — so it sits inside detlint's coverage.
// Recency for LRU ordering comes from a logical access counter, not
// timestamps.
package memo

import (
	"bytes"
	"container/list"
	"sync"
)

// Config bounds a Store. Zero values select the defaults; Dir == ""
// runs memory-only.
type Config struct {
	// MaxEntries bounds the in-memory tier's entries (default 512).
	MaxEntries int
	// Dir, when non-empty, enables the disk tier rooted there. The
	// directory is created if missing.
	Dir string
}

// The tiers' fixed bounds: memory also holds at most memMaxBytes, and
// the disk tier diskMaxEntries files of diskMaxBytes in all.
const (
	memMaxBytes    = 256 << 20 // 256 MiB
	diskMaxEntries = 4096
	diskMaxBytes   = 1 << 30 // 1 GiB
)

// Store is the two-tier blob cache. All methods are safe for
// concurrent use.
type Store struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // of *memEntry; front = most recently used
	byKey      map[string]*list.Element
	bytes      int64
	disk       *Disk // nil when memory-only

	memHits  uint64
	diskHits uint64
	misses   uint64
	puts     uint64
}

type memEntry struct {
	key  string
	blob []byte
}

// Open builds a Store from cfg. When the disk tier cannot be opened
// (unwritable or unusable Dir), Open still returns a working
// memory-only Store alongside the error, so callers can degrade
// gracefully: log the error, keep the store.
func Open(cfg Config) (*Store, error) {
	s := &Store{
		maxEntries: cfg.MaxEntries,
		maxBytes:   memMaxBytes,
		ll:         list.New(),
		byKey:      make(map[string]*list.Element),
	}
	if s.maxEntries <= 0 {
		s.maxEntries = 512
	}
	if cfg.Dir == "" {
		return s, nil
	}
	d, err := OpenDisk(cfg.Dir)
	if err != nil {
		return s, err
	}
	s.disk = d
	return s, nil
}

// Get returns the blob stored under key if accept, which the caller
// decodes it in, takes it. A disk-tier hit is promoted into the memory
// tier. accept runs outside the store's lock. A blob it refuses (one
// written in a format the caller no longer reads, say) counts as a
// miss, not a hit, and is dropped from both tiers. The returned slice
// is shared — callers must not mutate it.
func (s *Store) Get(key string, accept func(blob []byte) bool) ([]byte, bool) {
	blob, fromDisk, found := s.find(key)
	ok := found && accept(blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !ok:
		s.misses++
		if found {
			s.reject(key, blob)
		}
		return nil, false
	case fromDisk:
		s.diskHits++
	default:
		s.memHits++
	}
	return blob, true
}

// find returns the blob stored under key and whether it came from the
// disk tier, which it then also enters into the memory tier.
func (s *Store) find(key string) (blob []byte, fromDisk, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*memEntry).blob, false, true
	}
	if s.disk != nil {
		if blob, ok := s.disk.Get(key); ok {
			s.insert(key, blob)
			return blob, true, true
		}
	}
	return nil, false, false
}

// reject drops the refused blob under key from both tiers, unless a Put
// has replaced it since find returned it. Callers hold s.mu.
func (s *Store) reject(key string, blob []byte) {
	if el, ok := s.byKey[key]; ok {
		ent := el.Value.(*memEntry)
		if !sameSlice(ent.blob, blob) {
			return
		}
		s.ll.Remove(el)
		delete(s.byKey, key)
		s.bytes -= int64(len(ent.blob))
	}
	if s.disk != nil {
		s.disk.remove(key)
	}
}

// sameSlice reports whether a and b are the same bytes in memory.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Put stores blob under key in both tiers. Keys are content
// addresses, so a re-Put of the bytes already stored only refreshes
// recency. Different bytes under a stored key replace them in both
// tiers: the stored blob is stale (written by a build whose format the
// caller no longer decodes) or damaged, and the caller has just
// recomputed it.
func (s *Store) Put(key string, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		ent := el.Value.(*memEntry)
		if bytes.Equal(ent.blob, blob) {
			return
		}
		s.bytes += int64(len(blob) - len(ent.blob))
		ent.blob = blob
		s.evict()
	} else {
		s.insert(key, blob)
	}
	if s.disk != nil {
		s.disk.Put(key, blob)
	}
}

// insert adds key to the memory tier and evicts past the bounds.
// Callers hold s.mu.
func (s *Store) insert(key string, blob []byte) {
	s.byKey[key] = s.ll.PushFront(&memEntry{key: key, blob: blob})
	s.bytes += int64(len(blob))
	s.evict()
}

// evict drops least recently used entries past the memory bounds,
// always keeping the newest. Callers hold s.mu.
func (s *Store) evict() {
	for s.ll.Len() > 1 && (s.ll.Len() > s.maxEntries || s.bytes > s.maxBytes) {
		el := s.ll.Back()
		ent := el.Value.(*memEntry)
		s.ll.Remove(el)
		delete(s.byKey, ent.key)
		s.bytes -= int64(len(ent.blob))
	}
}

// Close flushes and releases the disk tier.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk == nil {
		return nil
	}
	return s.disk.Close()
}

// StoreStats is the read-side counter block, surfaced on /v1/stats.
type StoreStats struct {
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	Puts     uint64 `json:"puts"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`

	Disk *DiskStats `json:"disk,omitempty"`
}

// Stats snapshots the store's counters and sizes.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		MemHits:  s.memHits,
		DiskHits: s.diskHits,
		Misses:   s.misses,
		Puts:     s.puts,
		Entries:  s.ll.Len(),
		Bytes:    s.bytes,
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		st.Disk = &ds
	}
	return st
}
