package netpkt

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
)

// SCTP chunk types.
const (
	SCTPChunkData             = 0
	SCTPChunkInit             = 1
	SCTPChunkInitAck          = 2
	SCTPChunkSack             = 3
	SCTPChunkHeartbeat        = 4
	SCTPChunkHeartbeatAck     = 5
	SCTPChunkAbort            = 6
	SCTPChunkShutdown         = 7
	SCTPChunkShutdownAck      = 8
	SCTPChunkError            = 9
	SCTPChunkCookieEcho       = 10
	SCTPChunkCookieAck        = 11
	SCTPChunkShutdownComplete = 14
)

// castagnoli returns the CRC32c table, built on first use: building it
// (and the hardware tables behind it) costs ~150 µs, which a process
// that never sends SCTP should not pay at start-up.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// SCTPChunk is a single chunk within an SCTP packet.
type SCTPChunk struct {
	Type  uint8
	Flags uint8
	Value []byte
}

// SCTP is an SCTP packet: common header plus chunks.
//
// Deliberately, the CRC32c checksum covers only the SCTP packet itself —
// no IP pseudo-header. This is the property the paper leans on in §4.3:
// a NAT that rewrites only the IP source address leaves the SCTP checksum
// valid, so "IP-only translation" NATs pass SCTP but break DCCP.
type SCTP struct {
	SrcPort uint16
	DstPort uint16
	VTag    uint32
	Chunks  []SCTPChunk
}

// Marshal serializes the packet, computing the CRC32c checksum.
func (s *SCTP) Marshal() []byte {
	size := 12
	for _, c := range s.Chunks {
		size += 4 + (len(c.Value)+3)&^3
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint16(b[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], s.DstPort)
	binary.BigEndian.PutUint32(b[4:8], s.VTag)
	off := 12
	for _, c := range s.Chunks {
		b[off] = c.Type
		b[off+1] = c.Flags
		binary.BigEndian.PutUint16(b[off+2:off+4], uint16(4+len(c.Value)))
		copy(b[off+4:], c.Value)
		off += 4 + (len(c.Value)+3)&^3
	}
	binary.BigEndian.PutUint32(b[8:12], crc32.Checksum(b, castagnoli()))
	return b
}

// ParseSCTP decodes an SCTP packet, verifying the CRC32c when verify is
// true.
func ParseSCTP(b []byte, verify bool) (*SCTP, error) {
	if len(b) < 12 {
		return nil, ErrShortPacket
	}
	s := &SCTP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		VTag:    binary.BigEndian.Uint32(b[4:8]),
	}
	if verify {
		got := binary.BigEndian.Uint32(b[8:12])
		cp := append([]byte(nil), b...)
		cp[8], cp[9], cp[10], cp[11] = 0, 0, 0, 0
		if crc32.Checksum(cp, castagnoli()) != got {
			return s, ErrBadChecksum
		}
	}
	off := 12
	for off+4 <= len(b) {
		l := int(binary.BigEndian.Uint16(b[off+2 : off+4]))
		if l < 4 || off+l > len(b) {
			return s, ErrShortPacket
		}
		s.Chunks = append(s.Chunks, SCTPChunk{
			Type:  b[off],
			Flags: b[off+1],
			Value: append([]byte(nil), b[off+4:off+l]...),
		})
		off += (l + 3) &^ 3
	}
	return s, nil
}

// SCTPInitValue builds the value of an INIT or INIT-ACK chunk.
func SCTPInitValue(initiateTag, arwnd uint32, outStreams, inStreams uint16, initialTSN uint32) []byte {
	v := make([]byte, 16)
	binary.BigEndian.PutUint32(v[0:4], initiateTag)
	binary.BigEndian.PutUint32(v[4:8], arwnd)
	binary.BigEndian.PutUint16(v[8:10], outStreams)
	binary.BigEndian.PutUint16(v[10:12], inStreams)
	binary.BigEndian.PutUint32(v[12:16], initialTSN)
	return v
}

// SCTPParseInit extracts the fields of an INIT/INIT-ACK chunk value.
func SCTPParseInit(v []byte) (initiateTag, arwnd uint32, outStreams, inStreams uint16, initialTSN uint32, ok bool) {
	if len(v) < 16 {
		return 0, 0, 0, 0, 0, false
	}
	return binary.BigEndian.Uint32(v[0:4]),
		binary.BigEndian.Uint32(v[4:8]),
		binary.BigEndian.Uint16(v[8:10]),
		binary.BigEndian.Uint16(v[10:12]),
		binary.BigEndian.Uint32(v[12:16]),
		true
}

// SCTPDataValue builds the value of a DATA chunk.
func SCTPDataValue(tsn uint32, streamID, streamSeq uint16, ppid uint32, data []byte) []byte {
	v := make([]byte, 12+len(data))
	binary.BigEndian.PutUint32(v[0:4], tsn)
	binary.BigEndian.PutUint16(v[4:6], streamID)
	binary.BigEndian.PutUint16(v[6:8], streamSeq)
	binary.BigEndian.PutUint32(v[8:12], ppid)
	copy(v[12:], data)
	return v
}

// SCTPParseData extracts the fields of a DATA chunk value.
func SCTPParseData(v []byte) (tsn uint32, streamID, streamSeq uint16, ppid uint32, data []byte, ok bool) {
	if len(v) < 12 {
		return 0, 0, 0, 0, nil, false
	}
	return binary.BigEndian.Uint32(v[0:4]),
		binary.BigEndian.Uint16(v[4:6]),
		binary.BigEndian.Uint16(v[6:8]),
		binary.BigEndian.Uint32(v[8:12]),
		append([]byte(nil), v[12:]...),
		true
}

// SCTPSackValue builds the value of a SACK chunk.
func SCTPSackValue(cumTSN, arwnd uint32) []byte {
	v := make([]byte, 12)
	binary.BigEndian.PutUint32(v[0:4], cumTSN)
	binary.BigEndian.PutUint32(v[4:8], arwnd)
	return v
}
