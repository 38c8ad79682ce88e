package netpkt

import (
	"encoding/binary"
	"net/netip"
)

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
	TCPUrg = 1 << 5
)

// TCP is a TCP segment (header + payload).
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Urgent  uint16
	Options []byte // raw options, padded to 4 bytes on marshal
	Payload []byte
}

// HeaderLen returns the header length in bytes including option padding.
func (t *TCP) HeaderLen() int { return 20 + (len(t.Options)+3)&^3 }

// Marshal serializes the segment with a checksum over the pseudo-header.
func (t *TCP) Marshal(src, dst netip.Addr) []byte {
	return t.AppendMarshal(nil, src, dst)
}

// AppendMarshal serializes the segment onto b and returns the extended
// slice. It is the allocation-free core of Marshal.
func (t *TCP) AppendMarshal(b []byte, src, dst netip.Addr) []byte {
	hl := t.HeaderLen()
	off := len(b)
	b = growZero(b, hl+len(t.Payload))
	w := b[off:]
	binary.BigEndian.PutUint16(w[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(w[2:4], t.DstPort)
	binary.BigEndian.PutUint32(w[4:8], t.Seq)
	binary.BigEndian.PutUint32(w[8:12], t.Ack)
	w[12] = uint8(hl/4) << 4
	w[13] = t.Flags
	binary.BigEndian.PutUint16(w[14:16], t.Window)
	binary.BigEndian.PutUint16(w[18:20], t.Urgent)
	copy(w[20:], t.Options)
	copy(w[hl:], t.Payload)
	binary.BigEndian.PutUint16(w[16:18], TransportChecksum(src, dst, ProtoTCP, w))
	return b
}

// Parse decodes b into t, overwriting every field, and verifies the
// checksum when verify is true. A bad checksum still leaves the decoded
// fields in t.
//
// t.Options and t.Payload alias b (see ParseIPv4 for the ownership
// rules).
func (t *TCP) Parse(b []byte, src, dst netip.Addr, verify bool) error {
	if len(b) < 20 {
		return ErrShortPacket
	}
	hl := int(b[12]>>4) * 4
	if hl < 20 || hl > len(b) {
		return ErrShortPacket
	}
	*t = TCP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   b[13] & 0x3f,
		Window:  binary.BigEndian.Uint16(b[14:16]),
		Urgent:  binary.BigEndian.Uint16(b[18:20]),
		Payload: b[hl:len(b):len(b)],
	}
	if hl > 20 {
		t.Options = b[20:hl:hl]
	}
	if verify && TransportChecksum(src, dst, ProtoTCP, b) != 0 {
		return ErrBadChecksum
	}
	return nil
}

// TCPPorts extracts source and destination ports without a full parse.
func TCPPorts(b []byte) (src, dst uint16, ok bool) {
	if len(b) < 4 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(b[0:2]), binary.BigEndian.Uint16(b[2:4]), true
}

// SetTCPPorts rewrites the port fields in place (checksum not updated).
func SetTCPPorts(b []byte, src, dst uint16) bool {
	if len(b) < 4 {
		return false
	}
	binary.BigEndian.PutUint16(b[0:2], src)
	binary.BigEndian.PutUint16(b[2:4], dst)
	return true
}

// FixTCPChecksum recomputes the TCP checksum in b for the given
// pseudo-header addresses.
func FixTCPChecksum(b []byte, src, dst netip.Addr) bool {
	if len(b) < 18 {
		return false
	}
	b[16], b[17] = 0, 0
	binary.BigEndian.PutUint16(b[16:18], TransportChecksum(src, dst, ProtoTCP, b))
	return true
}
