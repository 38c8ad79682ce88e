package netpkt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// FuzzParseCodecs feeds arbitrary bytes through every transport and
// link codec the stack parses with: the in-place Parse of UDP, TCP and
// ICMP, ParseSCTP, ParseDCCP, ParseARP and ParseIPv4Lenient (the
// parser of ICMP errors' embedded datagrams). None may panic, and every
// view a parse returns, up to its capacity, must lie inside the input
// although the input has spare capacity, as a pooled frame buffer
// does. A message that parses cleanly must round-trip: marshaling it
// and parsing the result (checksum verified) gives the same message.
// ParseIPv4Lenient must agree, in value and error, with
// parseIPv4LenientCopy.
func FuzzParseCodecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := append(make([]byte, 0, len(data)+64), data...)

		var u UDP
		if err := u.Parse(b, srcA, dstA, false); err == nil {
			inside(t, "UDP.Payload", u.Payload, b)
			var got UDP
			if err := got.Parse(u.AppendMarshal(nil, srcA, dstA), srcA, dstA, true); err != nil || !sameUDP(got, u) {
				t.Fatalf("UDP round trip: %+v, %v; want %+v", got, err, u)
			}
		}

		var seg TCP
		if err := seg.Parse(b, srcA, dstA, false); err == nil {
			inside(t, "TCP.Options", seg.Options, b)
			inside(t, "TCP.Payload", seg.Payload, b)
			var got TCP
			if err := got.Parse(seg.AppendMarshal(nil, srcA, dstA), srcA, dstA, true); err != nil || !sameTCP(got, seg) {
				t.Fatalf("TCP round trip: %+v, %v; want %+v", got, err, seg)
			}
		}

		var ic ICMP
		if err := ic.Parse(b, false); err == nil {
			inside(t, "ICMP.Body", ic.Body, b)
			var got ICMP
			if err := got.Parse(ic.Marshal(), true); err != nil ||
				got.Type != ic.Type || got.Code != ic.Code || got.Rest != ic.Rest || !bytes.Equal(got.Body, ic.Body) {
				t.Fatalf("ICMP round trip: %+v, %v; want %+v", got, err, ic)
			}
		}

		if s, err := ParseSCTP(b, false); err == nil {
			got, err := ParseSCTP(s.Marshal(), true)
			if err != nil || !reflect.DeepEqual(got, s) {
				t.Fatalf("SCTP round trip: %+v, %v; want %+v", got, err, s)
			}
		}

		if d, err := ParseDCCP(b, srcA, dstA, false); err == nil {
			got, err := ParseDCCP(d.Marshal(srcA, dstA), srcA, dstA, true)
			if err != nil || !reflect.DeepEqual(got, d) {
				t.Fatalf("DCCP round trip: %+v, %v; want %+v", got, err, d)
			}
		}

		if a, err := ParseARP(b); err == nil {
			got, err := ParseARP(a.AppendMarshal(nil))
			if err != nil || *got != *a {
				t.Fatalf("ARP round trip: %+v, %v; want %+v", got, err, a)
			}
		}

		ip, err := ParseIPv4Lenient(b)
		if ip != nil {
			inside(t, "lenient Options", ip.Options, b)
			inside(t, "lenient Payload", ip.Payload, b)
		} else if err == nil {
			t.Fatal("ParseIPv4Lenient returned neither a packet nor an error")
		}
		ref, rerr := parseIPv4LenientCopy(b)
		if !reflect.DeepEqual(ip, ref) || fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("ParseIPv4Lenient = %+v, %v; the copying reference %+v, %v", ip, err, ref, rerr)
		}
	})
}

// parseIPv4LenientCopy is the reference form of ParseIPv4Lenient: it
// parses a truncated embedding from a copy whose Total Length is
// patched to the bytes present, then parses the header again from the
// original, whose checksum covers the Total Length as sent.
func parseIPv4LenientCopy(b []byte) (*IPv4, error) {
	if len(b) < 20 {
		return nil, ErrShortPacket
	}
	hl := int(b[0]&0x0f) * 4
	if b[0]>>4 != 4 || hl < 20 || len(b) < hl {
		return nil, ErrShortPacket
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total > len(b) {
		cp := append([]byte(nil), b...)
		binary.BigEndian.PutUint16(cp[2:4], uint16(len(b)))
		ip, err := ParseIPv4(cp)
		if err == ErrBadChecksum || err == nil {
			orig, err2 := parseHeaderOnly(b)
			if orig != nil {
				orig.Payload = b[hl:len(b):len(b)]
			}
			return orig, err2
		}
		return ip, err
	}
	return ParseIPv4(b)
}

// sameUDP compares datagrams by value; nil and empty payloads match.
func sameUDP(a, b UDP) bool {
	return a.SrcPort == b.SrcPort && a.DstPort == b.DstPort && bytes.Equal(a.Payload, b.Payload)
}

// sameTCP compares segments by value; nil and empty slices match.
func sameTCP(a, b TCP) bool {
	return a.SrcPort == b.SrcPort && a.DstPort == b.DstPort && a.Seq == b.Seq && a.Ack == b.Ack &&
		a.Flags == b.Flags && a.Window == b.Window && a.Urgent == b.Urgent &&
		bytes.Equal(a.Options, b.Options) && bytes.Equal(a.Payload, b.Payload)
}
