// Package netpkt implements wire-format codecs for the protocols used in
// the home-gateway testbed: Ethernet framing with 802.1Q VLANs, ARP,
// IPv4 (including options), UDP, TCP, ICMPv4, SCTP and DCCP.
//
// Network-layer packets and above are marshaled to real bytes with real
// checksums at every hop, so middlebox behaviors that depend on header
// rewriting (for example: SCTP surviving IP-only translation because its
// CRC32c does not cover a pseudo-header, while DCCP's checksum does) fall
// out of the codecs rather than being special-cased.
package netpkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IP protocol numbers used by the testbed.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoDCCP = 33
	ProtoSCTP = 132
)

// EtherTypes.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// ProtoName returns a short human-readable name for an IP protocol number.
func ProtoName(p uint8) string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoDCCP:
		return "dccp"
	case ProtoSCTP:
		return "sctp"
	default:
		return fmt.Sprintf("proto-%d", p)
	}
}

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// String implements fmt.Stringer ("aa:bb:cc:dd:ee:ff").
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is ff:ff:ff:ff:ff:ff.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsZero reports whether m is the all-zero address.
func (m MAC) IsZero() bool { return m == MAC{} }

// BroadcastMAC is the Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Frame is an Ethernet frame. The layer-2 header is kept in struct form
// (the simulator never needs raw L2 bytes); the network-layer payload is
// fully serialized.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    uint16 // EtherTypeIPv4 or EtherTypeARP
	Payload []byte
}

// Len returns the on-wire frame length in bytes (header + payload,
// padded to the Ethernet minimum of 64 bytes including FCS). Frames
// carry no 802.1Q tag: switches assign VLANs per port. Link
// serialization delays use this.
func (f *Frame) Len() int {
	n := 14 + len(f.Payload) + 4 // hdr + payload + FCS
	if n < 64 {
		n = 64
	}
	return n
}

// Clone returns a deep copy of the frame. Both the struct and the
// payload copy are drawn from the domain's pool p: broadcast fan-out
// clones are the pools' main consumer, and uninterested receivers
// recycle them on arrival.
func (f *Frame) Clone(p *Pool) *Frame {
	g := p.GetFrame()
	*g = *f
	g.Payload = append(p.GetBuf(len(f.Payload)), f.Payload...)
	//hgwlint:allow poollint Clone's documented contract is the ownership transfer: the caller owns the copy
	return g
}

// checksumAdd folds the bytes of b into a running 32-bit one's-
// complement accumulator (an odd trailing byte is padded with zero).
func checksumAdd(sum uint32, b []byte) uint32 {
	i := 0
	for ; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if i < len(b) {
		sum += uint32(b[i]) << 8
	}
	return sum
}

// checksumFold reduces a 32-bit accumulator to 16 bits with end-around
// carry.
func checksumFold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return uint16(sum)
}

// Checksum computes the RFC 1071 internet checksum over b.
func Checksum(b []byte) uint16 {
	return ^checksumFold(checksumAdd(0, b))
}

// TransportChecksum computes the internet checksum of a transport
// segment including the IPv4 pseudo-header. The segment's checksum field
// must be zeroed by the caller. The pseudo-header is folded into the
// accumulator arithmetically; no intermediate buffer is built.
func TransportChecksum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	s4 := src.As4()
	d4 := dst.As4()
	sum := uint32(binary.BigEndian.Uint16(s4[0:2])) +
		uint32(binary.BigEndian.Uint16(s4[2:4])) +
		uint32(binary.BigEndian.Uint16(d4[0:2])) +
		uint32(binary.BigEndian.Uint16(d4[2:4])) +
		uint32(proto) +
		uint32(uint16(len(segment)))
	return ^checksumFold(checksumAdd(sum, segment))
}

// Addr4 builds a netip.Addr from four octets. It is a test and
// configuration convenience.
func Addr4(a, b, c, d byte) netip.Addr {
	return netip.AddrFrom4([4]byte{a, b, c, d})
}

// ChecksumAdjust incrementally updates an internet checksum after the
// covered bytes old were replaced by new (RFC 1624's HC' = ~(~HC + ~m +
// m')). old and new must have the same even length.
func ChecksumAdjust(sum uint16, old, new []byte) uint16 {
	acc := uint32(^sum)
	for i := 0; i+1 < len(old); i += 2 {
		acc += uint32(^binary.BigEndian.Uint16(old[i:]))
		acc += uint32(binary.BigEndian.Uint16(new[i:]))
	}
	return ^checksumFold(acc)
}

// ChecksumAdjustU16 is ChecksumAdjust for a single 16-bit field (a port
// or an ICMP query ID), avoiding byte-slice staging entirely.
func ChecksumAdjustU16(sum uint16, old, new uint16) uint16 {
	return ^checksumFold(uint32(^sum) + uint32(^old) + uint32(new))
}

// ChecksumAdjustAddr is ChecksumAdjust for an IPv4 address covered by
// the checksum (directly, or via a transport pseudo-header).
func ChecksumAdjustAddr(sum uint16, old, new netip.Addr) uint16 {
	o4 := old.As4()
	n4 := new.As4()
	acc := uint32(^sum) +
		uint32(^binary.BigEndian.Uint16(o4[0:2])) + uint32(binary.BigEndian.Uint16(n4[0:2])) +
		uint32(^binary.BigEndian.Uint16(o4[2:4])) + uint32(binary.BigEndian.Uint16(n4[2:4]))
	return ^checksumFold(acc)
}
