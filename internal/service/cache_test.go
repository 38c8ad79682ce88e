package service

import (
	"bytes"
	"testing"
)

// FuzzResultBlob checks the result-blob framing two ways. Read as a
// blob, any input decodes without panicking, and one it accepts
// re-encodes to exactly its own bytes. Read as content (results up to
// the first newline, then NDJSON rows), the input is framed, must
// decode back to the same parts, and the framed blob cut at cut bytes
// or with bit flip flipped must decode as a miss.
func FuzzResultBlob(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint32) {
		if results, rows, ok := decodeResult(data); ok {
			if len(results) == 0 {
				t.Fatal("accepted a blob with empty results")
			}
			if bytes.Count(rows.b, []byte{'\n'}) != rows.n || (rows.n > 0 && !bytes.HasSuffix(rows.b, []byte{'\n'})) {
				t.Fatalf("rows are not %d newline-terminated lines: %q", rows.n, rows.b)
			}
			if again := encodeResult(results, rows); !bytes.Equal(again, data) {
				t.Fatalf("accepted blob re-encodes to different bytes:\n got %q\nwant %q", again, data)
			}
		}

		results, rest, _ := bytes.Cut(data, []byte{'\n'})
		if len(results) == 0 {
			return
		}
		var rows ndjson
		for len(rest) > 0 {
			line, tail, _ := bytes.Cut(rest, []byte{'\n'})
			rows.Write(append(line[:len(line):len(line)], '\n'))
			rest = tail
		}
		blob := encodeResult(results, rows)
		gotResults, gotRows, ok := decodeResult(blob)
		if !ok || !bytes.Equal(gotResults, results) || !bytes.Equal(gotRows.b, rows.b) || gotRows.n != rows.n {
			t.Fatalf("framed content does not decode back: ok=%v", ok)
		}
		if _, _, ok := decodeResult(blob[:int(cut)%len(blob)]); ok {
			t.Fatalf("blob truncated to %d of %d bytes decodes", int(cut)%len(blob), len(blob))
		}
		bit := int(flip) % (8 * len(blob))
		flipped := bytes.Clone(blob)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, _, ok := decodeResult(flipped); ok {
			t.Fatalf("blob with bit %d flipped decodes", bit)
		}
	})
}
