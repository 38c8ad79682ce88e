package netpkt

import (
	"encoding/binary"
	"net/netip"
)

// DCCP packet types (RFC 4340 §5.1).
const (
	DCCPRequest  = 0
	DCCPResponse = 1
	DCCPData     = 2
	DCCPAck      = 3
	DCCPDataAck  = 4
	DCCPCloseReq = 5
	DCCPClose    = 6
	DCCPReset    = 7
)

// DCCP is a DCCP packet using extended (48-bit, X=1) sequence numbers.
//
// Its checksum is the standard internet checksum computed over an IPv4
// pseudo-header, the DCCP header and the application data (CsCov = 0).
// Because the pseudo-header includes the IP source address, a NAT that
// rewrites only the IP header silently invalidates every DCCP packet —
// the mechanism behind the paper's observation that no gateway passed
// DCCP while 18 passed SCTP.
type DCCP struct {
	SrcPort     uint16
	DstPort     uint16
	Type        uint8
	Seq         uint64 // 48-bit
	Ack         uint64 // 48-bit; only for types with an ack subheader
	ServiceCode uint32 // Request/Response only
	Payload     []byte
}

// hasAck reports whether the packet type carries an acknowledgement
// subheader.
func (d *DCCP) hasAck() bool {
	switch d.Type {
	case DCCPResponse, DCCPAck, DCCPDataAck, DCCPCloseReq, DCCPClose, DCCPReset:
		return true
	}
	return false
}

// headerLen returns the generic-plus-subheader length in bytes.
func (d *DCCP) headerLen() int {
	n := 16 // generic header with X=1
	if d.hasAck() {
		n += 8
	}
	switch d.Type {
	case DCCPRequest, DCCPResponse:
		n += 4
	}
	return n
}

// Marshal serializes the packet including the pseudo-header checksum.
func (d *DCCP) Marshal(src, dst netip.Addr) []byte {
	hl := d.headerLen()
	b := make([]byte, hl+len(d.Payload))
	binary.BigEndian.PutUint16(b[0:2], d.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], d.DstPort)
	b[4] = uint8(hl / 4)
	b[5] = 0                       // CCVal=0, CsCov=0 (checksum covers everything)
	b[8] = (d.Type&0x0f)<<1 | 0x01 // X=1
	putUint48(b[10:16], d.Seq)
	off := 16
	if d.hasAck() {
		putUint48(b[off+2:off+8], d.Ack)
		off += 8
	}
	switch d.Type {
	case DCCPRequest, DCCPResponse:
		binary.BigEndian.PutUint32(b[off:off+4], d.ServiceCode)
		off += 4
	}
	copy(b[off:], d.Payload)
	binary.BigEndian.PutUint16(b[6:8], TransportChecksum(src, dst, ProtoDCCP, b))
	return b
}

// ParseDCCP decodes a DCCP packet, verifying the pseudo-header checksum
// when verify is true.
func ParseDCCP(b []byte, src, dst netip.Addr, verify bool) (*DCCP, error) {
	if len(b) < 16 {
		return nil, ErrShortPacket
	}
	if b[8]&0x01 != 1 {
		return nil, ErrShortPacket // short sequence numbers unsupported
	}
	d := &DCCP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Type:    (b[8] >> 1) & 0x0f,
		Seq:     getUint48(b[10:16]),
	}
	hl := int(b[4]) * 4
	if hl < 16 || hl > len(b) {
		return nil, ErrShortPacket
	}
	off := 16
	if d.hasAck() {
		if off+8 > hl {
			return nil, ErrShortPacket
		}
		d.Ack = getUint48(b[off+2 : off+8])
		off += 8
	}
	switch d.Type {
	case DCCPRequest, DCCPResponse:
		if off+4 > hl {
			return nil, ErrShortPacket
		}
		d.ServiceCode = binary.BigEndian.Uint32(b[off : off+4])
	}
	d.Payload = append([]byte(nil), b[hl:]...)
	if verify && TransportChecksum(src, dst, ProtoDCCP, b) != 0 {
		return d, ErrBadChecksum
	}
	return d, nil
}

func putUint48(b []byte, v uint64) {
	b[0] = byte(v >> 40)
	b[1] = byte(v >> 32)
	b[2] = byte(v >> 24)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 8)
	b[5] = byte(v)
}

func getUint48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}
