package netpkt

import (
	"encoding/binary"
	"net/netip"
)

// UDP is a UDP datagram (header + payload).
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// AppendMarshal serializes the datagram onto b, with a checksum
// computed over the pseudo-header for src/dst, and returns the extended
// slice.
func (u *UDP) AppendMarshal(b []byte, src, dst netip.Addr) []byte {
	off := len(b)
	b = growZero(b, 8+len(u.Payload))
	copy(b[off+8:], u.Payload)
	PutUDPHeader(b[off:], u.SrcPort, u.DstPort, src, dst)
	return b
}

// PutUDPHeader writes the 8-byte header of w, a datagram whose payload
// already follows it, with the checksum over the pseudo-header for
// src/dst. It lets a sender build its payload in place behind the
// header instead of copying it in.
func PutUDPHeader(w []byte, sport, dport uint16, src, dst netip.Addr) {
	binary.BigEndian.PutUint16(w[0:2], sport)
	binary.BigEndian.PutUint16(w[2:4], dport)
	binary.BigEndian.PutUint16(w[4:6], uint16(len(w)))
	w[6], w[7] = 0, 0
	csum := TransportChecksum(src, dst, ProtoUDP, w)
	if csum == 0 {
		csum = 0xffff // RFC 768: transmitted all-ones when computed zero
	}
	binary.BigEndian.PutUint16(w[6:8], csum)
}

// Parse decodes b into u, overwriting every field. When verify is true
// the checksum is validated against the given pseudo-header addresses;
// a zero checksum field means "no checksum" per RFC 768 and always
// verifies. A bad checksum still leaves the decoded fields in u.
//
// u.Payload aliases b (see ParseIPv4 for the ownership rules).
func (u *UDP) Parse(b []byte, src, dst netip.Addr, verify bool) error {
	if len(b) < 8 {
		return ErrShortPacket
	}
	length := int(binary.BigEndian.Uint16(b[4:6]))
	if length < 8 || length > len(b) {
		return ErrShortPacket
	}
	*u = UDP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Payload: b[8:length:length],
	}
	if verify && binary.BigEndian.Uint16(b[6:8]) != 0 {
		if TransportChecksum(src, dst, ProtoUDP, b[:length]) != 0 {
			return ErrBadChecksum
		}
	}
	return nil
}

// UDPPorts extracts source and destination ports without a full parse.
// ok is false if the buffer is too short.
func UDPPorts(b []byte) (src, dst uint16, ok bool) {
	if len(b) < 4 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(b[0:2]), binary.BigEndian.Uint16(b[2:4]), true
}

// SetUDPPorts rewrites the port fields in place (checksum not updated).
func SetUDPPorts(b []byte, src, dst uint16) bool {
	if len(b) < 4 {
		return false
	}
	binary.BigEndian.PutUint16(b[0:2], src)
	binary.BigEndian.PutUint16(b[2:4], dst)
	return true
}

// FixUDPChecksum recomputes the UDP checksum in b for the given
// pseudo-header addresses.
func FixUDPChecksum(b []byte, src, dst netip.Addr) bool {
	if len(b) < 8 {
		return false
	}
	b[6], b[7] = 0, 0
	csum := TransportChecksum(src, dst, ProtoUDP, b)
	if csum == 0 {
		csum = 0xffff
	}
	binary.BigEndian.PutUint16(b[6:8], csum)
	return true
}
