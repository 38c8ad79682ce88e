package netpkt

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	srcA = Addr4(192, 168, 1, 2)
	dstA = Addr4(10, 0, 1, 1)
)

func TestChecksumKnown(t *testing.T) {
	// RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, checksum ^0xddf2.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	b := []byte{0x01, 0x02, 0x03}
	if got, want := Checksum(b), ^uint16(0x0102+0x0300); got != want {
		t.Fatalf("Checksum = %#04x, want %#04x", got, want)
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		// Insert checksum over data with field zeroed; verifying over the
		// whole buffer must give zero.
		cp := append([]byte(nil), data...)
		cp[0], cp[1] = 0, 0
		c := Checksum(cp)
		cp[0], cp[1] = byte(c>>8), byte(c)
		// Odd-length buffers are fine too.
		return Checksum(cp) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("String = %q", m.String())
	}
	if !BroadcastMAC.IsBroadcast() || m.IsBroadcast() {
		t.Fatal("IsBroadcast wrong")
	}
	var z MAC
	if !z.IsZero() || m.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestFrameLen(t *testing.T) {
	f := &Frame{Payload: make([]byte, 100)}
	if f.Len() != 118 {
		t.Fatalf("Len = %d, want 118", f.Len())
	}
	small := &Frame{Payload: make([]byte, 10)}
	if small.Len() != 64 {
		t.Fatalf("min Len = %d, want 64", small.Len())
	}
}

func TestFrameClone(t *testing.T) {
	f := &Frame{Type: EtherTypeIPv4, Payload: []byte{1, 2, 3}}
	var pool Pool
	g := f.Clone(&pool)
	g.Payload[0] = 9
	if f.Payload[0] != 1 {
		t.Fatal("Clone shares payload")
	}
}

func TestIPv4Roundtrip(t *testing.T) {
	ip := &IPv4{
		TOS: 0x10, ID: 0x1234, Flags: IPFlagDF, TTL: 64,
		Protocol: ProtoUDP, Src: srcA, Dst: dstA,
		Payload: []byte("hello world"),
	}
	b := ip.Marshal()
	got, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst || got.TTL != 64 ||
		got.Protocol != ProtoUDP || got.ID != 0x1234 || got.Flags != IPFlagDF ||
		!bytes.Equal(got.Payload, ip.Payload) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: ProtoTCP, Src: srcA, Dst: dstA}
	b := ip.Marshal()
	b[8] = 3 // corrupt TTL
	if _, err := ParseIPv4(b); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestIPv4Short(t *testing.T) {
	if _, err := ParseIPv4([]byte{0x45, 0}); err == nil {
		t.Fatal("want error on short packet")
	}
	if _, err := ParseIPv4(make([]byte, 20)); err == nil {
		t.Fatal("want error on version 0")
	}
}

func TestIPv4OptionsRoundtrip(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: ProtoUDP, Src: srcA, Dst: dstA,
		Options: RecordRouteOption(4), Payload: []byte("x")}
	b := ip.Marshal()
	got, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Options) != 20 { // 19 padded to 20
		t.Fatalf("options len = %d", len(got.Options))
	}
	if got.Options[0] != IPOptRecordRoute {
		t.Fatalf("option type = %d", got.Options[0])
	}
}

func TestRecordRoute(t *testing.T) {
	opts := RecordRouteOption(3)
	for i, a := range []netip.Addr{Addr4(1, 1, 1, 1), Addr4(2, 2, 2, 2), Addr4(3, 3, 3, 3)} {
		if !RecordRoute(opts, a) {
			t.Fatalf("RecordRoute %d failed", i)
		}
	}
	if RecordRoute(opts, Addr4(4, 4, 4, 4)) {
		t.Fatal("RecordRoute should be full")
	}
	got := RecordedRoute(opts)
	if len(got) != 3 || got[0] != Addr4(1, 1, 1, 1) || got[2] != Addr4(3, 3, 3, 3) {
		t.Fatalf("RecordedRoute = %v", got)
	}
}

func TestIPv4RoundtripQuick(t *testing.T) {
	f := func(tos, ttl uint8, id uint16, payload []byte) bool {
		ip := &IPv4{TOS: tos, ID: id, TTL: ttl, Protocol: ProtoUDP, Src: srcA, Dst: dstA, Payload: payload}
		got, err := ParseIPv4(ip.Marshal())
		if err != nil {
			return false
		}
		return got.TOS == tos && got.TTL == ttl && got.ID == id && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestARPRoundtrip(t *testing.T) {
	a := &ARP{Op: ARPRequest, SenderMAC: MAC{1, 2, 3, 4, 5, 6},
		SenderIP: srcA, TargetIP: dstA}
	got, err := ParseARP(a.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != ARPRequest || got.SenderMAC != a.SenderMAC ||
		got.SenderIP != srcA || got.TargetIP != dstA {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestUDPRoundtrip(t *testing.T) {
	u := &UDP{SrcPort: 5000, DstPort: 53, Payload: []byte("query")}
	b := u.AppendMarshal(nil, srcA, dstA)
	var got UDP
	if err := got.Parse(b, srcA, dstA, true); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 5000 || got.DstPort != 53 || !bytes.Equal(got.Payload, u.Payload) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestUDPChecksumPseudoHeader(t *testing.T) {
	u := &UDP{SrcPort: 1, DstPort: 2, Payload: []byte("data")}
	b := u.AppendMarshal(nil, srcA, dstA)
	// Same bytes verified against a different source address must fail:
	// this is exactly what happens after IP-only NAT translation.
	if err := new(UDP).Parse(b, Addr4(10, 0, 9, 9), dstA, true); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
	// Fixing the checksum for the new pseudo-header makes it verify.
	if !FixUDPChecksum(b, Addr4(10, 0, 9, 9), dstA) {
		t.Fatal("FixUDPChecksum failed")
	}
	if err := new(UDP).Parse(b, Addr4(10, 0, 9, 9), dstA, true); err != nil {
		t.Fatalf("after fix: %v", err)
	}
}

func TestUDPPortRewrite(t *testing.T) {
	u := &UDP{SrcPort: 1024, DstPort: 80, Payload: []byte("x")}
	b := u.AppendMarshal(nil, srcA, dstA)
	if !SetUDPPorts(b, 40000, 80) {
		t.Fatal("SetUDPPorts failed")
	}
	s, d, ok := UDPPorts(b)
	if !ok || s != 40000 || d != 80 {
		t.Fatalf("ports = %d,%d", s, d)
	}
}

func TestUDPRoundtripQuick(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		u := &UDP{SrcPort: sp, DstPort: dp, Payload: payload}
		var got UDP
		err := got.Parse(u.AppendMarshal(nil, srcA, dstA), srcA, dstA, true)
		return err == nil && got.SrcPort == sp && got.DstPort == dp && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPRoundtrip(t *testing.T) {
	seg := &TCP{SrcPort: 33000, DstPort: 8080, Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: TCPSyn | TCPAck, Window: 65535, Payload: []byte("abc")}
	var got TCP
	if err := got.Parse(seg.Marshal(srcA, dstA), srcA, dstA, true); err != nil {
		t.Fatal(err)
	}
	if got.Seq != seg.Seq || got.Ack != seg.Ack || got.Flags != seg.Flags ||
		got.Window != 65535 || !bytes.Equal(got.Payload, seg.Payload) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestTCPChecksumCoversPseudoHeader(t *testing.T) {
	seg := &TCP{SrcPort: 1, DstPort: 2, Flags: TCPAck}
	b := seg.Marshal(srcA, dstA)
	if err := new(TCP).Parse(b, Addr4(9, 9, 9, 9), dstA, true); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
	FixTCPChecksum(b, Addr4(9, 9, 9, 9), dstA)
	if err := new(TCP).Parse(b, Addr4(9, 9, 9, 9), dstA, true); err != nil {
		t.Fatalf("after fix: %v", err)
	}
}

func TestTCPRoundtripQuick(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, payload []byte) bool {
		seg := &TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: TCPAck | TCPPsh, Payload: payload}
		var got TCP
		err := got.Parse(seg.Marshal(srcA, dstA), srcA, dstA, true)
		return err == nil && got.Seq == seq && got.Ack == ack && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestICMPRoundtrip(t *testing.T) {
	inner := (&IPv4{TTL: 64, Protocol: ProtoUDP, Src: srcA, Dst: dstA, Payload: []byte("12345678")}).Marshal()
	ic := &ICMP{Type: ICMPDestUnreachable, Code: ICMPCodePortUnreachable, Body: inner}
	got, err := ParseICMP(ic.Marshal(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != ICMPDestUnreachable || got.Code != ICMPCodePortUnreachable || !bytes.Equal(got.Body, inner) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if !got.IsError() {
		t.Fatal("IsError = false")
	}
}

func TestICMPEchoNotError(t *testing.T) {
	ic := &ICMP{Type: ICMPEchoRequest, Rest: 0x00010002}
	got, err := ParseICMP(ic.Marshal(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsError() {
		t.Fatal("echo IsError = true")
	}
}

func TestICMPBadChecksum(t *testing.T) {
	ic := &ICMP{Type: ICMPTimeExceeded}
	b := ic.Marshal()
	b[2] ^= 0x55 // corrupt the checksum
	if _, err := ParseICMP(b, true); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v", err)
	}
}

func TestICMPKindMapping(t *testing.T) {
	for k := ICMPKind(0); k < NumICMPKinds; k++ {
		typ, code := k.TypeCode()
		got, ok := KindOf(typ, code)
		if !ok || got != k {
			t.Fatalf("kind %v roundtrip -> %v %v", k, got, ok)
		}
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if _, ok := KindOf(ICMPEchoRequest, 0); ok {
		t.Fatal("echo should not map to a kind")
	}
}

func TestSCTPRoundtrip(t *testing.T) {
	s := &SCTP{SrcPort: 5001, DstPort: 9, VTag: 0xabcdef01,
		Chunks: []SCTPChunk{
			{Type: SCTPChunkInit, Value: SCTPInitValue(7, 65536, 1, 1, 100)},
			{Type: SCTPChunkData, Flags: 3, Value: SCTPDataValue(100, 0, 0, 0, []byte("payload"))},
		}}
	got, err := ParseSCTP(s.Marshal(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got.VTag != s.VTag || len(got.Chunks) != 2 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	tag, arwnd, out, in, tsn, ok := SCTPParseInit(got.Chunks[0].Value)
	if !ok || tag != 7 || arwnd != 65536 || out != 1 || in != 1 || tsn != 100 {
		t.Fatalf("init parse: %d %d %d %d %d %v", tag, arwnd, out, in, tsn, ok)
	}
	dtsn, sid, sseq, ppid, data, ok := SCTPParseData(got.Chunks[1].Value)
	if !ok || dtsn != 100 || sid != 0 || sseq != 0 || ppid != 0 || string(data) != "payload" {
		t.Fatal("data parse mismatch")
	}
}

func TestSCTPChecksumNotPseudoHeader(t *testing.T) {
	// The crucial property for the paper's SCTP result: the packet
	// verifies regardless of which IP addresses carried it.
	s := &SCTP{SrcPort: 1, DstPort: 2, VTag: 42,
		Chunks: []SCTPChunk{{Type: SCTPChunkHeartbeat}}}
	b := s.Marshal()
	if _, err := ParseSCTP(b, true); err != nil {
		t.Fatal(err)
	}
	// Corrupting a byte must be detected.
	b[0] ^= 0xff
	if _, err := ParseSCTP(b, true); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v", err)
	}
}

func TestSCTPChunkPadding(t *testing.T) {
	s := &SCTP{Chunks: []SCTPChunk{{Type: SCTPChunkCookieEcho, Value: []byte("abc")}}} // 7 -> pad 8
	b := s.Marshal()
	if len(b) != 12+8 {
		t.Fatalf("len = %d, want 20", len(b))
	}
	got, err := ParseSCTP(b, true)
	if err != nil || len(got.Chunks) != 1 || string(got.Chunks[0].Value) != "abc" {
		t.Fatalf("parse: %v %+v", err, got)
	}
}

func TestDCCPRoundtrip(t *testing.T) {
	for _, typ := range []uint8{DCCPRequest, DCCPResponse, DCCPData, DCCPAck, DCCPDataAck, DCCPClose, DCCPReset} {
		d := &DCCP{SrcPort: 40000, DstPort: 5001, Type: typ,
			Seq: 0x010203040506 & 0xffffffffffff, Ack: 0x060504030201,
			ServiceCode: 0x74657374, Payload: []byte("dccp data")}
		got, err := ParseDCCP(d.Marshal(srcA, dstA), srcA, dstA, true)
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		if got.Type != typ || got.Seq != d.Seq || !bytes.Equal(got.Payload, d.Payload) {
			t.Fatalf("type %d roundtrip mismatch: %+v", typ, got)
		}
		if got.hasAck() && got.Ack != d.Ack {
			t.Fatalf("type %d ack mismatch", typ)
		}
		if typ == DCCPRequest || typ == DCCPResponse {
			if got.ServiceCode != d.ServiceCode {
				t.Fatalf("type %d service code mismatch", typ)
			}
		}
	}
}

func TestDCCPChecksumCoversPseudoHeader(t *testing.T) {
	// The crucial property for the paper's DCCP result: rewriting the IP
	// source address without fixing the DCCP checksum breaks validation.
	d := &DCCP{SrcPort: 1, DstPort: 2, Type: DCCPRequest, Seq: 1}
	b := d.Marshal(srcA, dstA)
	if _, err := ParseDCCP(b, srcA, dstA, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDCCP(b, Addr4(10, 0, 9, 9), dstA, true); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestUint48(t *testing.T) {
	f := func(v uint64) bool {
		v &= 0xffffffffffff
		var b [6]byte
		putUint48(b[:], v)
		return getUint48(b[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProtoName(t *testing.T) {
	cases := map[uint8]string{ProtoICMP: "icmp", ProtoTCP: "tcp", ProtoUDP: "udp", ProtoDCCP: "dccp", ProtoSCTP: "sctp", 99: "proto-99"}
	//hgwlint:allow detlint per-entry assertions commute; any visit order fails the same way
	for p, want := range cases {
		if got := ProtoName(p); got != want {
			t.Fatalf("ProtoName(%d) = %q, want %q", p, got, want)
		}
	}
}
