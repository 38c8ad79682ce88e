package service

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"hgw/internal/memo"
)

// CacheStats is a point-in-time snapshot of the result cache's
// counters, served by GET /v1/stats. Hits counts the in-memory tier;
// DiskHits counts entries read back from the persistent tier (across a
// restart, or after memory eviction) — a disk hit is still a cache
// answer, just a slower one.
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	DiskHits    uint64 `json:"disk_hits"`
	Misses      uint64 `json:"misses"`
	Entries     int    `json:"entries"`
	Capacity    int    `json:"capacity"`
	DiskEntries int    `json:"disk_entries,omitempty"`
	DiskBytes   int64  `json:"disk_bytes,omitempty"`
	DiskCorrupt uint64 `json:"disk_corrupt,omitempty"`
}

// cacheStats renders the result store's counters in the CacheStats
// shape; capacity is the memory tier's entry bound.
func cacheStats(st memo.StoreStats, capacity int) CacheStats {
	cs := CacheStats{Hits: st.MemHits, DiskHits: st.DiskHits, Misses: st.Misses,
		Entries: st.Entries, Capacity: capacity}
	if st.Disk != nil {
		cs.DiskEntries = st.Disk.Entries
		cs.DiskBytes = st.Disk.Bytes
		cs.DiskCorrupt = st.Disk.Corrupt
	}
	return cs
}

// A result blob is one completed run as the result store keeps it,
// under its hgw.CacheKey content address, in both tiers:
//
//	[0]      blobVersion
//	[1:5]    len(results), big-endian uint32
//	[5:9]    number of event rows, big-endian uint32
//	[9:]     the canonical Results JSON exactly as first marshalled,
//	         then the NDJSON device-event rows, each ending in '\n'
//	last 4   CRC-32 (IEEE) of everything before it
//
// A hit serves both parts by slicing the blob: no JSON is parsed, and
// the results are the bytes the first run marshalled, which is what
// makes the byte-identity guarantee testable. The CRC makes every
// truncation and bit flip a miss in the memory tier as well as on
// disk (whose own checksum covers only the file). Blobs of the earlier
// JSON-envelope format start with '{' and decode as misses; the re-run
// replaces them.
const (
	blobVersion = 1
	blobHeader  = 9
	blobSumLen  = 4
)

// ndjson is a run of NDJSON device rows: their bytes, each row one
// line ending in '\n', and the row count. It is the io.Writer a
// flight's json.Encoder writes to: Encode writes each value as one
// newline-terminated line in one Write call.
type ndjson struct {
	b []byte
	n int
}

func (r *ndjson) Write(p []byte) (int, error) {
	r.b = append(r.b, p...)
	r.n++
	return len(p), nil
}

// encodeResult frames results and rows into one result blob.
func encodeResult(results []byte, rows ndjson) []byte {
	b := make([]byte, blobHeader, blobHeader+len(results)+len(rows.b)+blobSumLen)
	b[0] = blobVersion
	binary.BigEndian.PutUint32(b[1:5], uint32(len(results)))
	binary.BigEndian.PutUint32(b[5:9], uint32(rows.n))
	b = append(b, results...)
	b = append(b, rows.b...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeResult is encodeResult's inverse. The returned slices alias
// blob. Anything but a well-formed blob — a wrong version, a failed
// CRC, lengths or a row count that disagree with the bytes, empty
// results — reports false, which callers treat as a miss.
func decodeResult(blob []byte) (results []byte, rows ndjson, ok bool) {
	if len(blob) < blobHeader+blobSumLen || blob[0] != blobVersion {
		return nil, ndjson{}, false
	}
	end := len(blob) - blobSumLen
	if crc32.ChecksumIEEE(blob[:end]) != binary.BigEndian.Uint32(blob[end:]) {
		return nil, ndjson{}, false
	}
	n := uint64(binary.BigEndian.Uint32(blob[1:5]))
	body := blob[blobHeader:end:end]
	if n == 0 || n > uint64(len(body)) {
		return nil, ndjson{}, false
	}
	rows = ndjson{b: body[n:], n: int(binary.BigEndian.Uint32(blob[5:9]))}
	if bytes.Count(rows.b, []byte{'\n'}) != rows.n || (len(rows.b) > 0 && rows.b[len(rows.b)-1] != '\n') {
		return nil, ndjson{}, false
	}
	return body[:n:n], rows, true
}
