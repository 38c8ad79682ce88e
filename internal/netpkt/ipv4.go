package netpkt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// IPv4 option types used by the testbed.
const (
	IPOptEnd         = 0
	IPOptNop         = 1
	IPOptRecordRoute = 7
)

// IPv4 flag bits (in the 3-bit flags field).
const (
	IPFlagDF = 0x2 // don't fragment
	IPFlagMF = 0x1 // more fragments
)

// IPv4 is a parsed (or to-be-marshaled) IPv4 packet.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3-bit flags field (DF/MF)
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr
	Options  []byte // raw options, padded to 4 bytes on marshal
	Payload  []byte

	// Buf, when set, is a pooled buffer (Pool.GetBuf) that Options and
	// Payload may alias, and the packet owns it: whoever ends the
	// packet's life recycles it. A received packet owns its frame
	// buffer, a sender the buffer it drew with Reserve. Parse leaves
	// Buf unset and Clone does not copy it.
	Buf []byte
	// reserved marks a Buf drawn by Reserve, with the payload written
	// right after room for the header.
	reserved bool
	// pooled marks a record drawn by Pool.GetPacket or ParsePooled,
	// which PutPacket recycles; records built by callers are never
	// pooled.
	pooled bool
}

// ErrShortPacket is returned when a buffer is too small to contain the
// claimed header or payload.
var ErrShortPacket = errors.New("netpkt: short packet")

// ErrBadChecksum is returned when checksum verification fails.
var ErrBadChecksum = errors.New("netpkt: bad checksum")

// HeaderLen returns the header length in bytes including options padding.
func (ip *IPv4) HeaderLen() int {
	opt := (len(ip.Options) + 3) &^ 3
	return 20 + opt
}

// TotalLen returns the total packet length in bytes.
func (ip *IPv4) TotalLen() int { return ip.HeaderLen() + len(ip.Payload) }

// Marshal serializes the packet, computing the header checksum.
func (ip *IPv4) Marshal() []byte { return ip.AppendMarshal(nil) }

// MarshalPooled serializes like Marshal but draws the buffer from the
// domain's pool p (GetBuf). The caller owns the result; it may be
// recycled with PutBuf once provably dead.
//
// A packet whose Payload still sits where Reserve put it is not copied:
// the header is written in front of the payload, and the packet's Buf
// itself, handed from the packet to the caller, is the result.
func (ip *IPv4) MarshalPooled(p *Pool) []byte {
	hl := ip.HeaderLen()
	if ip.reserved && len(ip.Payload) > 0 && cap(ip.Buf) > hl && &ip.Buf[:hl+1][hl] == &ip.Payload[0] {
		b := ip.Buf[:hl+len(ip.Payload)]
		ip.putHeader(b[:hl])
		ip.Buf, ip.reserved = nil, false
		return b
	}
	return ip.AppendMarshal(p.GetBuf(ip.TotalLen()))
}

// Reserve draws a buffer from the domain's pool p with room for the
// packet's header (its Options must be final) and n payload bytes, and
// gives it to the packet (Buf). It returns the empty payload slice: the
// sender appends its transport header and data to it and stores the
// result in Payload, and MarshalPooled then writes only the IPv4 header
// in front of them.
func (ip *IPv4) Reserve(p *Pool, n int) []byte {
	hl := ip.HeaderLen()
	ip.Buf, ip.reserved = p.GetBuf(hl+n), true
	return ip.Buf[hl:hl]
}

// AppendMarshal serializes the packet onto dst and returns the extended
// slice. It is the allocation-free core of Marshal/MarshalPooled.
func (ip *IPv4) AppendMarshal(dst []byte) []byte {
	hl := ip.HeaderLen()
	off := len(dst)
	dst = growZero(dst, hl+len(ip.Payload))
	ip.putHeader(dst[off : off+hl])
	copy(dst[off+hl:], ip.Payload)
	return dst
}

// putHeader writes the header, options and padding into b, which is
// HeaderLen bytes long, and may hold stale bytes.
func (ip *IPv4) putHeader(b []byte) {
	hl := len(b)
	b[0] = 0x40 | uint8(hl/4)
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(ip.TotalLen()))
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	s4 := ip.Src.As4()
	d4 := ip.Dst.As4()
	b[10], b[11] = 0, 0
	copy(b[12:16], s4[:])
	copy(b[16:20], d4[:])
	clear(b[20+copy(b[20:], ip.Options):])
	binary.BigEndian.PutUint16(b[10:12], Checksum(b))
}

// Clone returns a deep copy whose Options and Payload no longer alias
// the buffer the packet was parsed from. Code that retains a parsed
// packet past the lifetime of its wire buffer must Clone it first.
func (ip *IPv4) Clone() *IPv4 {
	cp := *ip
	cp.Options = append([]byte(nil), ip.Options...)
	cp.Payload = append([]byte(nil), ip.Payload...)
	cp.Buf, cp.reserved, cp.pooled = nil, false, false
	return &cp
}

// ParseIPv4 decodes b into an IPv4 packet. The header checksum is
// verified; ErrBadChecksum is returned (with a non-nil packet) when it
// does not match, so middleboxes and endpoints can decide how strict to
// be.
//
// The returned packet's Options and Payload alias b — the parse copies
// nothing. The caller keeps ownership of b and must not recycle or
// rewrite it while the parsed view is live; use Clone to sever the
// aliasing at ownership boundaries.
func ParseIPv4(b []byte) (*IPv4, error) {
	ip := new(IPv4)
	err := ip.Parse(b)
	if err != nil && err != ErrBadChecksum {
		return nil, err
	}
	return ip, err
}

// Parse decodes b into ip, overwriting every field except whether the
// record is pooled. It is the allocation-free core of ParseIPv4:
// callers on hot paths reuse one IPv4 value across packets. Aliasing
// semantics match ParseIPv4. On a hard error (not ErrBadChecksum) the
// receiver's contents are unspecified.
func (ip *IPv4) Parse(b []byte) error {
	if len(b) < 20 {
		return ErrShortPacket
	}
	if b[0]>>4 != 4 {
		return fmt.Errorf("netpkt: not IPv4 (version %d)", b[0]>>4)
	}
	hl := int(b[0]&0x0f) * 4
	if hl < 20 || len(b) < hl {
		return ErrShortPacket
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < hl || total > len(b) {
		return ErrShortPacket
	}
	*ip = IPv4{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Flags:    uint8(binary.BigEndian.Uint16(b[6:8]) >> 13),
		FragOff:  binary.BigEndian.Uint16(b[6:8]) & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
		pooled:   ip.pooled,
	}
	if hl > 20 {
		ip.Options = b[20:hl:hl]
	}
	ip.Payload = b[hl:total:total]
	if Checksum(b[:hl]) != 0 {
		return ErrBadChecksum
	}
	return nil
}

// RecordRouteOption builds a Record Route option with room for n hops.
func RecordRouteOption(n int) []byte {
	length := 3 + 4*n
	opt := make([]byte, length)
	opt[0] = IPOptRecordRoute
	opt[1] = uint8(length)
	opt[2] = 4 // pointer: first free slot
	return opt
}

// RecordRoute appends addr to a Record Route option found in opts,
// returning true if an entry was recorded. It mutates opts in place.
func RecordRoute(opts []byte, addr netip.Addr) bool {
	i := 0
	for i < len(opts) {
		switch opts[i] {
		case IPOptEnd:
			return false
		case IPOptNop:
			i++
			continue
		}
		if i+1 >= len(opts) {
			return false
		}
		l := int(opts[i+1])
		if l < 2 || i+l > len(opts) {
			return false
		}
		if opts[i] == IPOptRecordRoute && l >= 7 {
			ptr := int(opts[i+2])
			if ptr+3 <= l {
				a4 := addr.As4()
				copy(opts[i+ptr-1:], a4[:])
				opts[i+2] = uint8(ptr + 4)
				return true
			}
			return false
		}
		i += l
	}
	return false
}

// RecordedRoute extracts the addresses recorded in a Record Route option.
func RecordedRoute(opts []byte) []netip.Addr {
	i := 0
	for i < len(opts) {
		switch opts[i] {
		case IPOptEnd:
			return nil
		case IPOptNop:
			i++
			continue
		}
		if i+1 >= len(opts) {
			return nil
		}
		l := int(opts[i+1])
		if l < 2 || i+l > len(opts) {
			return nil
		}
		if opts[i] == IPOptRecordRoute {
			ptr := int(opts[i+2])
			var out []netip.Addr
			for off := 3; off+4 <= ptr-1; off += 4 {
				out = append(out, netip.AddrFrom4([4]byte(opts[i+off:i+off+4])))
			}
			return out
		}
		i += l
	}
	return nil
}

// ARP operation codes.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// ARP is an Ethernet/IPv4 ARP message.
type ARP struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  netip.Addr
	TargetMAC MAC
	TargetIP  netip.Addr
}

// AppendMarshal serializes the ARP message onto dst and returns the
// extended slice.
func (a *ARP) AppendMarshal(dst []byte) []byte {
	off := len(dst)
	dst = growZero(dst, 28)
	b := dst[off:]
	binary.BigEndian.PutUint16(b[0:2], 1)      // hardware: Ethernet
	binary.BigEndian.PutUint16(b[2:4], 0x0800) // protocol: IPv4
	b[4] = 6
	b[5] = 4
	binary.BigEndian.PutUint16(b[6:8], a.Op)
	copy(b[8:14], a.SenderMAC[:])
	s4 := a.SenderIP.As4()
	copy(b[14:18], s4[:])
	copy(b[18:24], a.TargetMAC[:])
	t4 := a.TargetIP.As4()
	copy(b[24:28], t4[:])
	return dst
}

// ParseARP decodes an ARP message.
func ParseARP(b []byte) (*ARP, error) {
	if len(b) < 28 {
		return nil, ErrShortPacket
	}
	a := &ARP{
		Op:       binary.BigEndian.Uint16(b[6:8]),
		SenderIP: netip.AddrFrom4([4]byte(b[14:18])),
		TargetIP: netip.AddrFrom4([4]byte(b[24:28])),
	}
	copy(a.SenderMAC[:], b[8:14])
	copy(a.TargetMAC[:], b[18:24])
	return a, nil
}

// ParseIPv4Lenient decodes b like ParseIPv4 but tolerates a payload
// truncated below the header's Total Length field, as found in the
// embedded datagrams of ICMP error messages (RFC 792 only requires the
// header plus 8 bytes). The header checksum is still verified.
func ParseIPv4Lenient(b []byte) (*IPv4, error) {
	if len(b) < 20 {
		return nil, ErrShortPacket
	}
	hl := int(b[0]&0x0f) * 4
	if b[0]>>4 != 4 || hl < 20 || len(b) < hl {
		return nil, ErrShortPacket
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total > len(b) {
		// Truncated embedding: keep what we have. The checksum covers
		// the header as sent, original Total Length included.
		ip, err := parseHeaderOnly(b)
		ip.Payload = b[hl:len(b):len(b)]
		return ip, err
	}
	return ParseIPv4(b)
}

// parseHeaderOnly decodes just the IP header, verifying its checksum.
func parseHeaderOnly(b []byte) (*IPv4, error) {
	hl := int(b[0]&0x0f) * 4
	ip := &IPv4{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Flags:    uint8(binary.BigEndian.Uint16(b[6:8]) >> 13),
		FragOff:  binary.BigEndian.Uint16(b[6:8]) & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
	}
	if hl > 20 {
		ip.Options = b[20:hl:hl]
	}
	if Checksum(b[:hl]) != 0 {
		return ip, ErrBadChecksum
	}
	return ip, nil
}
