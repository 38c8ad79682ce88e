package nat

import (
	"testing"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

var (
	client = netpkt.Addr4(192, 168, 1, 100)
	server = netpkt.Addr4(10, 0, 1, 1)
	wan    = netpkt.Addr4(10, 0, 1, 50)
)

func newEng(s *sim.Sim, pol Policy) *Engine {
	e := NewEngine(s, pol)
	e.SetWAN(wan)
	return e
}

func udpPkt(src, dst [2]uint16) *netpkt.IPv4 {
	u := &netpkt.UDP{SrcPort: src[1], DstPort: dst[1], Payload: []byte("probe")}
	return &netpkt.IPv4{
		Protocol: netpkt.ProtoUDP, TTL: 64,
		Src: client, Dst: server,
		Payload: u.AppendMarshal(nil, client, server),
	}
}

func outboundUDP(e *Engine, sport, dport uint16) (*netpkt.IPv4, bool) {
	ip := udpPkt([2]uint16{0, sport}, [2]uint16{0, dport})
	ok := e.Outbound(ip)
	return ip, ok
}

func inboundUDP(e *Engine, extPort, sport uint16) bool {
	u := &netpkt.UDP{SrcPort: sport, DstPort: extPort, Payload: []byte("resp")}
	ip := &netpkt.IPv4{
		Protocol: netpkt.ProtoUDP, TTL: 64,
		Src: server, Dst: wan,
		Payload: u.AppendMarshal(nil, server, wan),
	}
	return e.Inbound(ip)
}

func TestUDPTranslationAndChecksum(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true})
	ip, ok := outboundUDP(e, 5000, 7000)
	if !ok {
		t.Fatal("outbound dropped")
	}
	if ip.Src != wan {
		t.Fatalf("src = %v", ip.Src)
	}
	// Port preserved, checksum valid for the new pseudo-header.
	var u netpkt.UDP
	if err := u.Parse(ip.Payload, wan, server, true); err != nil {
		t.Fatalf("checksum after translation: %v", err)
	}
	if u.SrcPort != 5000 {
		t.Fatalf("ext port = %d, want preserved 5000", u.SrcPort)
	}
}

func TestUDPOutboundOnlyTimeout(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{UDP: UDPTimeouts{Outbound: 30 * time.Second, Inbound: 180 * time.Second, Bidir: 180 * time.Second}})
	outboundUDP(e, 5000, 7000)
	b, ok := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	if !ok {
		t.Fatal("no binding")
	}
	ext := b.ext

	// At 29s the binding is alive; at 31s it is gone.
	alive29, alive31 := false, false
	s.After(29*time.Second, func() { alive29 = inboundUDP(e, ext, 7000) })
	s.Run(0)
	// Inbound refreshed the binding to the Inbound timeout; expire it.
	s2 := sim.New(2)
	e2 := newEng(s2, Policy{UDP: UDPTimeouts{Outbound: 30 * time.Second, Inbound: 180 * time.Second, Bidir: 180 * time.Second}})
	outboundUDP(e2, 5000, 7000)
	b2, _ := e2.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	s2.After(31*time.Second, func() { alive31 = inboundUDP(e2, b2.ext, 7000) })
	s2.Run(0)

	if !alive29 {
		t.Fatal("binding dead at 29s, timeout is 30s")
	}
	if alive31 {
		t.Fatal("binding alive at 31s, timeout is 30s")
	}
}

func TestUDPInboundRefreshUsesInboundTimeout(t *testing.T) {
	pol := Policy{UDP: UDPTimeouts{Outbound: 450 * time.Second, Inbound: 200 * time.Second, Bidir: 450 * time.Second}}
	// Prime with inbound at t=1s; binding should then expire 200s later,
	// not 450s.
	s := sim.New(1)
	e := newEng(s, pol)
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	ext := b.ext
	var aliveAt199, aliveAt202 bool
	s.After(1*time.Second, func() { inboundUDP(e, ext, 7000) })
	s.After(200*time.Second, func() { aliveAt199 = inboundUDP(e, ext, 7000) }) // 199s after refresh
	s.After(403*time.Second, func() { aliveAt202 = inboundUDP(e, ext, 7000) }) // 203s after refresh
	s.Run(0)
	if !aliveAt199 {
		t.Fatal("binding dead before inbound timeout")
	}
	if aliveAt202 {
		t.Fatal("binding alive past inbound timeout (used outbound value?)")
	}
}

func TestUDPBidirTimeout(t *testing.T) {
	pol := Policy{UDP: UDPTimeouts{Outbound: 30 * time.Second, Inbound: 180 * time.Second, Bidir: 600 * time.Second}}
	s := sim.New(1)
	e := newEng(s, pol)
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	ext := b.ext
	var alive bool
	s.After(1*time.Second, func() { inboundUDP(e, ext, 7000) })   // inbound
	s.After(2*time.Second, func() { outboundUDP(e, 5000, 7000) }) // outbound after inbound -> bidir
	s.After(500*time.Second, func() { alive = inboundUDP(e, ext, 7000) })
	s.Run(0)
	if !alive {
		t.Fatal("bidir binding dead at 498s < 600s")
	}
}

func TestUDPServiceOverride(t *testing.T) {
	pol := Policy{
		UDP:         UDPTimeouts{Outbound: 120 * time.Second},
		UDPServices: map[uint16]UDPTimeouts{53: {Outbound: 20 * time.Second}},
	}
	s := sim.New(1)
	e := newEng(s, pol)
	outboundUDP(e, 5000, 53)
	outboundUDP(e, 5001, 123)
	bDNS, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 53)]
	bNTP, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5001, server, 123)]
	var dnsAlive, ntpAlive bool
	s.After(25*time.Second, func() {
		dnsAlive = inboundUDP(e, bDNS.ext, 53)
		ntpAlive = inboundUDP(e, bNTP.ext, 123)
	})
	s.Run(0)
	if dnsAlive {
		t.Fatal("DNS binding alive past its 20s override")
	}
	if !ntpAlive {
		t.Fatal("NTP binding dead before default 120s")
	}
}

func TestTimerGranularityQuantises(t *testing.T) {
	pol := Policy{
		UDP:              UDPTimeouts{Outbound: 30 * time.Second},
		TimerGranularity: 20 * time.Second,
	}
	s := sim.New(7)
	e := newEng(s, pol)
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	// Observe (without refreshing) at 1s intervals to find the expiry.
	expiry := -1
	for i := 1; i <= 75; i++ {
		i := i
		s.After(time.Duration(i)*time.Second, func() {
			if _, ok := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]; !ok && expiry < 0 {
				expiry = i
			}
		})
	}
	s.Run(0)
	_ = b
	if expiry < 30 || expiry > 51 {
		t.Fatalf("expiry at %ds, want within one 20s tick past the 30s timeout", expiry)
	}
}

func TestPortOverloadingSameEndpoint(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true})
	// Two flows from the same internal endpoint to different servers
	// share the preserved external port (port overloading): the reverse
	// map keyed by remote endpoint keeps them unambiguous. This is what
	// makes hole punching work through port-preserving NATs.
	outboundUDP(e, 5000, 7000)
	outboundUDP(e, 5000, 7001)
	b1, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	b2, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7001)]
	if b1.ext != 5000 || b2.ext != 5000 {
		t.Fatalf("ext ports = %d, %d; want both preserved as 5000", b1.ext, b2.ext)
	}
	// Both reverse mappings resolve independently.
	if !inboundUDP(e, 5000, 7000) || !inboundUDP(e, 5000, 7001) {
		t.Fatal("overloaded reverse mappings broken")
	}
}

func TestPortPreservationConflictAcrossClients(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true})
	// A different internal host wanting the same source port must not
	// steal or share the first host's external port.
	outboundUDP(e, 5000, 7000)
	client2 := netpkt.Addr4(192, 168, 1, 101)
	u := &netpkt.UDP{SrcPort: 5000, DstPort: 7000, Payload: []byte("x")}
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoUDP, TTL: 64, Src: client2, Dst: server,
		Payload: u.AppendMarshal(nil, client2, server)}
	if !e.Outbound(ip) {
		t.Fatal("second client dropped")
	}
	b2, ok := e.byFlow[flowOf(netpkt.ProtoUDP, client2, 5000, server, 7000)]
	if !ok {
		t.Fatal("no binding for second client")
	}
	if b2.ext == 5000 {
		t.Fatal("second client stole the first client's preserved port")
	}
}

func TestNoPreservationAllocatesSequential(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{})
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	if b.ext == 5000 {
		t.Fatal("port preserved despite policy")
	}
}

func TestQuarantinePreventsImmediateReuse(t *testing.T) {
	pol := Policy{
		UDP:       UDPTimeouts{Outbound: 10 * time.Second},
		PortAlloc: PortAllocPreserving, ReuseExpiredBinding: false,
	}
	s := sim.New(1)
	e := newEng(s, pol)
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	first := b.ext
	var second uint16
	s.After(20*time.Second, func() { // after expiry, within quarantine
		outboundUDP(e, 5000, 7000)
		nb, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
		second = nb.ext
	})
	s.Run(0)
	if first != 5000 {
		t.Fatalf("first ext = %d", first)
	}
	if second == first {
		t.Fatal("expired port reused despite quarantine")
	}
}

func TestReuseExpiredBinding(t *testing.T) {
	pol := Policy{
		UDP:       UDPTimeouts{Outbound: 10 * time.Second},
		PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true,
	}
	s := sim.New(1)
	e := newEng(s, pol)
	outboundUDP(e, 5000, 7000)
	var second uint16
	s.After(20*time.Second, func() {
		outboundUDP(e, 5000, 7000)
		nb, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
		second = nb.ext
	})
	s.Run(0)
	if second != 5000 {
		t.Fatalf("second ext = %d, want reused 5000", second)
	}
}

func tcpPkt(sport, dport uint16, flags uint8, src, dst, csumSrc, csumDst [4]byte) *netpkt.IPv4 {
	seg := &netpkt.TCP{SrcPort: sport, DstPort: dport, Flags: flags, Seq: 1}
	srcA := netpkt.Addr4(src[0], src[1], src[2], src[3])
	dstA := netpkt.Addr4(dst[0], dst[1], dst[2], dst[3])
	return &netpkt.IPv4{
		Protocol: netpkt.ProtoTCP, TTL: 64, Src: srcA, Dst: dstA,
		Payload: seg.Marshal(srcA, dstA),
	}
}

func outboundSYN(e *Engine, sport uint16) bool {
	seg := &netpkt.TCP{SrcPort: sport, DstPort: 80, Flags: netpkt.TCPSyn, Seq: 1}
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoTCP, TTL: 64, Src: client, Dst: server,
		Payload: seg.Marshal(client, server)}
	return e.Outbound(ip)
}

func TestTCPBindingCap(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{MaxTCPBindings: 16, TCPEstablished: time.Hour})
	okCount := 0
	for i := 0; i < 32; i++ {
		if outboundSYN(e, uint16(10000+i)) {
			okCount++
		}
	}
	if okCount != 16 {
		t.Fatalf("allowed %d bindings, cap is 16", okCount)
	}
	if e.tcpCount != 16 {
		t.Fatalf("tcpCount = %d", e.tcpCount)
	}
	if e.Drops[DropTCPTableFull] != 16 {
		t.Fatalf("tcp-table-full drops = %d", e.Drops[DropTCPTableFull])
	}
}

func TestTCPNonSynWithoutBindingDropped(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{})
	seg := &netpkt.TCP{SrcPort: 1234, DstPort: 80, Flags: netpkt.TCPAck, Seq: 1}
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoTCP, TTL: 64, Src: client, Dst: server,
		Payload: seg.Marshal(client, server)}
	if e.Outbound(ip) {
		t.Fatal("bare ACK created a binding")
	}
}

func TestTCPTeardownShortensBinding(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{TCPEstablished: time.Hour})
	outboundSYN(e, 10000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoTCP, client, 10000, server, 80)]
	ext := b.ext
	// SYN|ACK inbound establishes.
	synack := &netpkt.TCP{SrcPort: 80, DstPort: ext, Flags: netpkt.TCPSyn | netpkt.TCPAck, Seq: 1, Ack: 2}
	in := &netpkt.IPv4{Protocol: netpkt.ProtoTCP, TTL: 64, Src: server, Dst: wan,
		Payload: synack.Marshal(server, wan)}
	if !e.Inbound(in) {
		t.Fatal("SYN|ACK dropped")
	}
	// RST from client: binding should linger briefly, then vanish.
	rst := &netpkt.TCP{SrcPort: 10000, DstPort: 80, Flags: netpkt.TCPRst, Seq: 2}
	out := &netpkt.IPv4{Protocol: netpkt.ProtoTCP, TTL: 64, Src: client, Dst: server,
		Payload: rst.Marshal(client, server)}
	e.Outbound(out)
	gone := false
	s.After(10*time.Second, func() {
		_, ok := e.byFlow[flowOf(netpkt.ProtoTCP, client, 10000, server, 80)]
		gone = !ok
	})
	s.Run(0)
	if !gone {
		t.Fatal("binding survived RST + linger")
	}
}

func TestUnknownProtoDrop(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{UnknownProto: UnknownDrop})
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoSCTP, TTL: 64, Src: client, Dst: server, Payload: make([]byte, 16)}
	if e.Outbound(ip) {
		t.Fatal("unknown proto forwarded despite drop policy")
	}
}

func TestUnknownProtoIPOnly(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{UnknownProto: UnknownTranslateIPOnly, UDP: UDPTimeouts{Outbound: 120 * time.Second}})
	payload := (&netpkt.SCTP{SrcPort: 5000, DstPort: 9, VTag: 1,
		Chunks: []netpkt.SCTPChunk{{Type: netpkt.SCTPChunkInit, Value: netpkt.SCTPInitValue(1, 1, 1, 1, 1)}}}).Marshal()
	orig := append([]byte(nil), payload...)
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoSCTP, TTL: 64, Src: client, Dst: server, Payload: payload}
	if !e.Outbound(ip) {
		t.Fatal("IP-only translation dropped the packet")
	}
	if ip.Src != wan {
		t.Fatalf("src = %v", ip.Src)
	}
	// The SCTP bytes must be untouched (that is the whole point).
	if string(ip.Payload) != string(orig) {
		t.Fatal("transport payload modified by IP-only translation")
	}
	// Return traffic maps back to the client.
	rip := &netpkt.IPv4{Protocol: netpkt.ProtoSCTP, TTL: 64, Src: server, Dst: wan, Payload: payload}
	if !e.Inbound(rip) {
		t.Fatal("inbound unknown-proto dropped")
	}
	if rip.Dst != client {
		t.Fatalf("inbound dst = %v", rip.Dst)
	}
}

func TestUnknownProtoPassUntouched(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{UnknownProto: UnknownPassUntouched})
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoDCCP, TTL: 64, Src: client, Dst: server, Payload: make([]byte, 16)}
	if !e.Outbound(ip) {
		t.Fatal("pass-untouched dropped")
	}
	if ip.Src != client {
		t.Fatalf("src rewritten to %v", ip.Src)
	}
}

// buildICMPError fabricates the ICMP error a server-side hijacker sends
// about a translated outbound UDP packet.
func buildICMPError(t *testing.T, e *Engine, kind netpkt.ICMPKind, extPort uint16) *netpkt.IPv4 {
	t.Helper()
	inner := &netpkt.IPv4{
		Protocol: netpkt.ProtoUDP, TTL: 63, Src: wan, Dst: server,
		Payload: (&netpkt.UDP{SrcPort: extPort, DstPort: 7000, Payload: []byte("probe")}).AppendMarshal(nil, wan, server),
	}
	typ, code := kind.TypeCode()
	ic := &netpkt.ICMP{Type: typ, Code: code, Body: inner.Marshal()}
	return &netpkt.IPv4{
		Protocol: netpkt.ProtoICMP, TTL: 64, Src: server, Dst: wan,
		Payload: ic.Marshal(),
	}
}

func TestICMPErrorFullTranslation(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true,
		ICMPUDP: AllICMP(ICMPTranslate)})
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	errPkt := buildICMPError(t, e, netpkt.KindPortUnreachable, b.ext)
	if !e.Inbound(errPkt) {
		t.Fatal("ICMP error dropped")
	}
	if errPkt.Dst != client {
		t.Fatalf("outer dst = %v", errPkt.Dst)
	}
	ic, err := netpkt.ParseICMP(errPkt.Payload, true)
	if err != nil {
		t.Fatalf("outer ICMP checksum: %v", err)
	}
	inner, err := netpkt.ParseIPv4Lenient(ic.Body)
	if err != nil {
		t.Fatalf("inner parse: %v", err)
	}
	if inner.Src != client {
		t.Fatalf("inner src = %v, want client", inner.Src)
	}
	sport, _, _ := netpkt.UDPPorts(inner.Payload)
	if sport != 5000 {
		t.Fatalf("inner sport = %d, want 5000", sport)
	}
	// Inner transport checksum must verify against the internal
	// pseudo-header.
	if err := new(netpkt.UDP).Parse(inner.Payload, client, server, true); err != nil {
		t.Fatalf("inner UDP checksum after translation: %v", err)
	}
}

func TestICMPErrorNoInnerFix(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true,
		ICMPUDP: AllICMP(ICMPNoInnerFix)})
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	errPkt := buildICMPError(t, e, netpkt.KindTTLExceeded, b.ext)
	if !e.Inbound(errPkt) {
		t.Fatal("dropped")
	}
	ic, err := netpkt.ParseICMP(errPkt.Payload, true)
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := netpkt.ParseIPv4Lenient(ic.Body)
	if inner.Src != wan {
		t.Fatalf("inner src = %v, want untranslated wan", inner.Src)
	}
}

func TestICMPErrorBadInnerChecksum(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true,
		ICMPUDP: AllICMP(ICMPBadInnerIPChecksum)})
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	errPkt := buildICMPError(t, e, netpkt.KindHostUnreachable, b.ext)
	if !e.Inbound(errPkt) {
		t.Fatal("dropped")
	}
	ic, err := netpkt.ParseICMP(errPkt.Payload, true)
	if err != nil {
		t.Fatalf("outer must still be valid: %v", err)
	}
	inner, err := netpkt.ParseIPv4Lenient(ic.Body)
	if err != netpkt.ErrBadChecksum {
		t.Fatalf("inner err = %v, want ErrBadChecksum", err)
	}
	if inner.Src != client {
		t.Fatalf("inner src = %v (translated but corrupted)", inner.Src)
	}
}

func TestICMPErrorToRST(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true,
		TCPEstablished: time.Hour, ICMPTCP: AllICMP(ICMPToRST)})
	outboundSYN(e, 10000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoTCP, client, 10000, server, 80)]
	inner := &netpkt.IPv4{
		Protocol: netpkt.ProtoTCP, TTL: 63, Src: wan, Dst: server,
		Payload: (&netpkt.TCP{SrcPort: b.ext, DstPort: 80, Flags: netpkt.TCPSyn, Seq: 1}).Marshal(wan, server),
	}
	ic := &netpkt.ICMP{Type: netpkt.ICMPDestUnreachable, Code: netpkt.ICMPCodeHostUnreachable, Body: inner.Marshal()}
	errPkt := &netpkt.IPv4{Protocol: netpkt.ProtoICMP, TTL: 64, Src: server, Dst: wan, Payload: ic.Marshal()}
	if !e.Inbound(errPkt) {
		t.Fatal("dropped")
	}
	if errPkt.Protocol != netpkt.ProtoTCP {
		t.Fatalf("protocol = %d, want TCP RST", errPkt.Protocol)
	}
	var seg netpkt.TCP
	if err := seg.Parse(errPkt.Payload, server, client, true); err != nil {
		t.Fatal(err)
	}
	if seg.Flags&netpkt.TCPRst == 0 || seg.DstPort != 10000 {
		t.Fatalf("segment: %+v", seg)
	}
}

func TestICMPEchoTranslation(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{})
	ic := &netpkt.ICMP{Type: netpkt.ICMPEchoRequest, Rest: uint32(777) << 16}
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoICMP, TTL: 64, Src: client, Dst: server, Payload: ic.Marshal()}
	if !e.Outbound(ip) {
		t.Fatal("echo dropped")
	}
	extID, _ := echoID(ip.Payload)
	if _, err := netpkt.ParseICMP(ip.Payload, true); err != nil {
		t.Fatalf("echo checksum after ID rewrite: %v", err)
	}
	// Reply comes back with the external ID.
	reply := &netpkt.ICMP{Type: netpkt.ICMPEchoReply, Rest: uint32(extID) << 16}
	rip := &netpkt.IPv4{Protocol: netpkt.ProtoICMP, TTL: 64, Src: server, Dst: wan, Payload: reply.Marshal()}
	if !e.Inbound(rip) {
		t.Fatal("echo reply dropped")
	}
	if rip.Dst != client {
		t.Fatalf("reply dst = %v", rip.Dst)
	}
	gotID, _ := echoID(rip.Payload)
	if gotID != 777 {
		t.Fatalf("reply ID = %d, want 777", gotID)
	}
}

func TestInboundWithoutBindingDropped(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{})
	if inboundUDP(e, 4444, 7000) {
		t.Fatal("unsolicited inbound forwarded")
	}
	if e.Drops[DropUDPNoBinding] != 1 {
		t.Fatalf("drops: %v", e.Drops)
	}
}

func TestExpiredTCPBindingFreesSlot(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{MaxTCPBindings: 2})
	outboundSYN(e, 10000)
	outboundSYN(e, 10001)
	if outboundSYN(e, 10002) {
		t.Fatal("third binding allowed over cap")
	}
	ok := false
	count := -1
	s.After(tcpTransitory+5*time.Second, func() { // transitory expired
		ok = outboundSYN(e, 10003)
		count = e.tcpCount
	})
	s.Run(0)
	if !ok {
		t.Fatal("slot not freed after transitory expiry")
	}
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
}
