package nat

import (
	"testing"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// outboundUDPTo sends one outbound UDP packet to an arbitrary remote
// endpoint and reports the translated source port.
func outboundUDPTo(t *testing.T, e *Engine, sport uint16, dst [4]byte, dport uint16) uint16 {
	t.Helper()
	dstA := netpkt.Addr4(dst[0], dst[1], dst[2], dst[3])
	u := &netpkt.UDP{SrcPort: sport, DstPort: dport, Payload: []byte("x")}
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoUDP, TTL: 64, Src: client, Dst: dstA,
		Payload: u.AppendMarshal(nil, client, dstA)}
	if !e.Outbound(ip) {
		t.Fatalf("outbound to %v:%d dropped", dstA, dport)
	}
	tp, _, _ := netpkt.UDPPorts(ip.Payload)
	return tp
}

// inboundUDPFrom offers one inbound UDP packet from an arbitrary remote
// endpoint to external port ext and reports whether it was translated.
func inboundUDPFrom(e *Engine, src [4]byte, sport, ext uint16) bool {
	srcA := netpkt.Addr4(src[0], src[1], src[2], src[3])
	u := &netpkt.UDP{SrcPort: sport, DstPort: ext, Payload: []byte("y")}
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoUDP, TTL: 64, Src: srcA, Dst: wan,
		Payload: u.AppendMarshal(nil, srcA, wan)}
	return e.Inbound(ip)
}

var (
	dstA = [4]byte{10, 0, 1, 1} // == server
	dstB = [4]byte{10, 0, 2, 1}
)

func TestMappingEndpointIndependent(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{Mapping: MappingEndpointIndependent, PortAlloc: PortAllocSequential})
	p1 := outboundUDPTo(t, e, 5000, dstA, 7000)
	p2 := outboundUDPTo(t, e, 5000, dstA, 7001)
	p3 := outboundUDPTo(t, e, 5000, dstB, 7000)
	if p1 != p2 || p1 != p3 {
		t.Fatalf("EIM ports differ: %d %d %d", p1, p2, p3)
	}
	if len(e.mappings) != 1 || len(e.byFlow) != 3 {
		t.Fatalf("mappings=%d sessions=%d, want 1/3", len(e.mappings), len(e.byFlow))
	}
}

func TestMappingAddressDependent(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{Mapping: MappingAddressDependent, PortAlloc: PortAllocSequential})
	p1 := outboundUDPTo(t, e, 5000, dstA, 7000)
	p2 := outboundUDPTo(t, e, 5000, dstA, 7001)
	p3 := outboundUDPTo(t, e, 5000, dstB, 7000)
	if p1 != p2 {
		t.Fatalf("ADM same-address ports differ: %d %d", p1, p2)
	}
	if p1 == p3 {
		t.Fatalf("ADM cross-address ports coincide: %d", p1)
	}
	if len(e.mappings) != 2 || len(e.byFlow) != 3 {
		t.Fatalf("mappings=%d sessions=%d, want 2/3", len(e.mappings), len(e.byFlow))
	}
}

func TestMappingAddressAndPortDependentSequential(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocSequential}) // zero Mapping = APDM
	p1 := outboundUDPTo(t, e, 5000, dstA, 7000)
	p2 := outboundUDPTo(t, e, 5000, dstA, 7001)
	p3 := outboundUDPTo(t, e, 5000, dstB, 7000)
	if p1 == p2 || p1 == p3 || p2 == p3 {
		t.Fatalf("APDM ports not distinct: %d %d %d", p1, p2, p3)
	}
	if len(e.mappings) != 3 {
		t.Fatalf("mappings=%d, want 3", len(e.mappings))
	}
}

// TestMappingExpiryFoldsSessions: when an EIM mapping's sessions expire
// one by one, the mapping (and its port) survives until the last one.
func TestMappingLifetimeFollowsSessions(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{
		Mapping:   MappingEndpointIndependent,
		PortAlloc: PortAllocSequential,
		UDP:       UDPTimeouts{Outbound: 30 * time.Second},
	})
	p1 := outboundUDPTo(t, e, 5000, dstA, 7000)
	var mid uint16
	s.After(20*time.Second, func() { mid = outboundUDPTo(t, e, 5000, dstB, 7000) })
	var portAt45 uint16
	s.After(45*time.Second, func() {
		// First session expired at 30 s, second is alive until 50 s:
		// the mapping must still hold its port.
		if len(e.mappings) != 1 {
			t.Errorf("mapping gone while a session lives")
		}
		portAt45 = outboundUDPTo(t, e, 5000, dstA, 7001)
	})
	s.Run(0)
	if mid != p1 || portAt45 != p1 {
		t.Fatalf("EIM port not stable across session churn: %d %d %d", p1, mid, portAt45)
	}
	if len(e.mappings) != 0 || len(e.byFlow) != 0 {
		t.Fatalf("table not empty after expiry: mappings=%d sessions=%d", len(e.mappings), len(e.byFlow))
	}
}

// TestMappingSessionListUnlink expires an EIM mapping's four sessions
// from the middle, the head and the tail of its session list, and checks
// the session count and the per-address lookup after each removal.
func TestMappingSessionListUnlink(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{
		Mapping:   MappingEndpointIndependent,
		PortAlloc: PortAllocSequential,
		UDP:       UDPTimeouts{Outbound: 30 * time.Second},
	})
	remotes := [][4]byte{{10, 0, 3, 1}, {10, 0, 3, 2}, {10, 0, 3, 3}, {10, 0, 3, 4}}
	for i, r := range remotes {
		s.After(time.Duration(i)*time.Second, func() { outboundUDPTo(t, e, 5000, r, 7000) })
	}
	// Refreshing the two oldest sessions makes the expiry order 2, 3,
	// 0, 1: the middle of the list (newest first), its head, its tail,
	// then the last one.
	s.After(10*time.Second, func() { outboundUDPTo(t, e, 5000, remotes[0], 7000) })
	s.After(11*time.Second, func() { outboundUDPTo(t, e, 5000, remotes[1], 7000) })
	var m *Mapping
	var ok bool
	s.After(5*time.Second, func() {
		m, ok = e.mappings[e.mapKeyFor(flowOf(netpkt.ProtoUDP, client, 5000, server, 7000))]
	})
	type check struct {
		at   time.Duration
		live []int
	}
	for _, c := range []check{
		{31 * time.Second, []int{0, 1, 2, 3}},
		{32 * time.Second, []int{0, 1, 3}},
		{33 * time.Second, []int{0, 1}},
		{40 * time.Second, []int{1}},
	} {
		s.At(c.at+time.Millisecond, func() {
			if m.n != len(c.live) {
				t.Errorf("at %v: %d sessions, want %d", c.at, m.n, len(c.live))
			}
			for i, r := range remotes {
				want := false
				for _, l := range c.live {
					want = want || l == i
				}
				if got := m.hasSessionToward(netpkt.Addr4(r[0], r[1], r[2], r[3])); got != want {
					t.Errorf("at %v: session toward remote %d = %v, want %v", c.at, i, got, want)
				}
			}
		})
	}
	s.Run(0)
	if !ok {
		t.Fatal("mapping not found")
	}
	if m.n != 0 || m.sessions != nil || len(e.mappings) != 0 {
		t.Fatalf("after expiry: %d sessions, list %v, %d mappings", m.n, m.sessions, len(e.mappings))
	}
}

func TestFilteringEndpointIndependent(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{Filtering: FilteringEndpointIndependent, PortAlloc: PortAllocSequential})
	ext := outboundUDPTo(t, e, 5000, dstA, 7000)
	if !inboundUDPFrom(e, dstA, 7001, ext) {
		t.Fatal("EIF rejected same-address different-port")
	}
	if !inboundUDPFrom(e, dstB, 9000, ext) {
		t.Fatal("EIF rejected different address")
	}
	// The adopted sessions must deliver replies and refresh like any
	// other: the endpoint now has sessions to all three remotes.
	if len(e.byFlow) != 3 {
		t.Fatalf("sessions=%d, want 3 (two adopted)", len(e.byFlow))
	}
	if inboundUDPFrom(e, dstB, 9000, ext+1) {
		t.Fatal("EIF passed a packet to an unmapped port")
	}
}

func TestFilteringAddressDependent(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{Filtering: FilteringAddressDependent, PortAlloc: PortAllocSequential})
	ext := outboundUDPTo(t, e, 5000, dstA, 7000)
	if !inboundUDPFrom(e, dstA, 7001, ext) {
		t.Fatal("ADF rejected same-address different-port")
	}
	if inboundUDPFrom(e, dstB, 9000, ext) {
		t.Fatal("ADF passed a different address")
	}
	if e.Drops[DropUDPFiltered] != 1 {
		t.Fatalf("drops: %v, want udp-filtered=1", e.Drops)
	}
}

func TestFilteringDefaultRequiresExactSession(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocSequential}) // zero Filtering = APDF
	ext := outboundUDPTo(t, e, 5000, dstA, 7000)
	if inboundUDPFrom(e, dstA, 7001, ext) {
		t.Fatal("APDF passed same-address different-port")
	}
	if inboundUDPFrom(e, dstB, 7000, ext) {
		t.Fatal("APDF passed different address")
	}
	if !inboundUDPFrom(e, dstA, 7000, ext) {
		t.Fatal("APDF rejected the exact session")
	}
	if e.Drops[DropUDPNoBinding] != 2 {
		t.Fatalf("drops: %v, want udp-no-binding=2 (the pre-refactor counter)", e.Drops)
	}
}

// TestFilteringCrossPortSessionNotShadowed: an inbound packet admitted
// by EIF at port P from a remote the endpoint already reaches through a
// different mapping refreshes the existing session instead of creating
// a duplicate 5-tuple entry.
func TestFilteringCrossPortSessionNotShadowed(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{Filtering: FilteringEndpointIndependent, PortAlloc: PortAllocSequential})
	ext1 := outboundUDPTo(t, e, 5000, dstA, 7000)
	ext2 := outboundUDPTo(t, e, 5000, dstB, 8000)
	if ext1 == ext2 {
		t.Fatal("sequential APDM handed out one port twice")
	}
	// dstB:8000 hits ext1 (not its own mapping's port).
	if !inboundUDPFrom(e, dstB, 8000, ext1) {
		t.Fatal("EIF rejected cross-port packet")
	}
	if len(e.byFlow) != 2 {
		t.Fatalf("sessions=%d, want 2 (no shadow session)", len(e.byFlow))
	}
}

// TestFilteringInboundTCPSynStaysTransitory: an unsolicited SYN
// admitted by EIF must not occupy a long-lived (established) table
// slot — only a reply from the internal host establishes it.
func TestFilteringInboundTCPSynStaysTransitory(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{
		Filtering:      FilteringEndpointIndependent,
		PortAlloc:      PortAllocSequential,
		TCPEstablished: time.Hour,
	})
	if !outboundSYN(e, 10000) {
		t.Fatal("outbound SYN dropped")
	}
	b, _ := e.byFlow[flowOf(netpkt.ProtoTCP, client, 10000, server, 80)]
	// Unsolicited SYN from an unrelated remote to the mapped port.
	scanner := netpkt.Addr4(10, 9, 9, 9)
	syn := &netpkt.TCP{SrcPort: 6666, DstPort: b.ext, Flags: netpkt.TCPSyn, Seq: 1}
	ip := &netpkt.IPv4{Protocol: netpkt.ProtoTCP, TTL: 64, Src: scanner, Dst: wan,
		Payload: syn.Marshal(scanner, wan)}
	if !e.Inbound(ip) {
		t.Fatal("EIF rejected inbound SYN")
	}
	adopted, ok := e.byFlow[flowOf(netpkt.ProtoTCP, client, 10000, scanner, 6666)]
	if !ok {
		t.Fatal("no adopted session")
	}
	if adopted.tcpEstablished {
		t.Fatal("unsolicited SYN marked established")
	}
	// Never answered: the phantom session must drain on the transitory
	// timeout, not pin a slot for TCPEstablished.
	gone := false
	s.After(tcpTransitory+10*time.Second, func() {
		_, still := e.byFlow[flowOf(netpkt.ProtoTCP, client, 10000, scanner, 6666)]
		gone = !still
	})
	s.Run(tcpTransitory + 10*time.Second)
	if !gone {
		t.Fatal("unanswered inbound session survived the transitory timeout")
	}
	// An answered one, by contrast, establishes on the outbound reply.
	// (The original outbound session also drained its transitory timer
	// by now; re-open the mapping first.)
	if !outboundSYN(e, 10000) {
		t.Fatal("re-opening SYN dropped")
	}
	b, _ = e.byFlow[flowOf(netpkt.ProtoTCP, client, 10000, server, 80)]
	syn2 := &netpkt.TCP{SrcPort: 7777, DstPort: b.ext, Flags: netpkt.TCPSyn, Seq: 1}
	ip2 := &netpkt.IPv4{Protocol: netpkt.ProtoTCP, TTL: 64, Src: scanner, Dst: wan,
		Payload: syn2.Marshal(scanner, wan)}
	if !e.Inbound(ip2) {
		t.Fatal("EIF rejected second SYN")
	}
	reply := &netpkt.TCP{SrcPort: 10000, DstPort: 7777, Flags: netpkt.TCPSyn | netpkt.TCPAck, Seq: 1, Ack: 2}
	rip := &netpkt.IPv4{Protocol: netpkt.ProtoTCP, TTL: 64, Src: client, Dst: scanner,
		Payload: reply.Marshal(client, scanner)}
	if !e.Outbound(rip) {
		t.Fatal("outbound reply dropped")
	}
	answered, _ := e.byFlow[flowOf(netpkt.ProtoTCP, client, 10000, scanner, 7777)]
	if answered == nil || !answered.tcpEstablished {
		t.Fatal("answered inbound session did not establish")
	}
}

func TestPortAllocContiguous(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocContiguous})
	p1 := outboundUDPTo(t, e, 5000, dstA, 7000)
	p2 := outboundUDPTo(t, e, 5000, dstA, 7001)
	p3 := outboundUDPTo(t, e, 5000, dstB, 7000)
	if p2 != p1+1 || p3 != p2+1 {
		t.Fatalf("contiguous allocation broken: %d %d %d", p1, p2, p3)
	}
}

func TestPortAllocRandomDeterministicPerSeed(t *testing.T) {
	run := func() []uint16 {
		s := sim.New(42)
		e := newEng(s, Policy{PortAlloc: PortAllocRandom})
		var out []uint16
		out = append(out, outboundUDPTo(t, e, 5000, dstA, 7000))
		out = append(out, outboundUDPTo(t, e, 5000, dstA, 7001))
		out = append(out, outboundUDPTo(t, e, 5001, dstB, 7000))
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random allocation not seed-deterministic: %v vs %v", a, b)
		}
		if a[i] < 30000 {
			t.Fatalf("random port %d below the allocation floor", a[i])
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatalf("random allocation produced a constant: %v", a)
	}
}

// TestPortAllocZeroIsSequential pins the zero value: a Policy that
// names no allocation behavior scans sequentially, and only
// PortAllocPreserving keeps the internal source port.
func TestPortAllocZeroIsSequential(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true})
	if got := outboundUDPTo(t, e, 5000, dstA, 7000); got != 5000 {
		t.Fatalf("preserving alloc did not preserve: %d", got)
	}
	s2 := sim.New(1)
	e2 := newEng(s2, Policy{})
	if got := outboundUDPTo(t, e2, 5000, dstA, 7000); got != 30000 {
		t.Fatalf("zero alloc chose port %d, want the sequential scan's first, 30000", got)
	}
}

func TestPredictTraversal(t *testing.T) {
	const (
		eim  = MappingEndpointIndependent
		apdm = MappingAddressAndPortDependent
		eif  = FilteringEndpointIndependent
		adf  = FilteringAddressDependent
		apdf = FilteringAddressAndPortDependent
	)
	cases := []struct {
		name string
		mA   MappingBehavior
		fA   FilteringBehavior
		pA   bool
		mB   MappingBehavior
		fB   FilteringBehavior
		pB   bool
		want bool
	}{
		{"full-cone pair", eim, eif, false, eim, eif, false, true},
		{"port-restricted pair", eim, apdf, false, eim, apdf, false, true},
		{"symmetric pair, fresh ports", apdm, apdf, false, apdm, apdf, false, false},
		{"symmetric pair, preserving", apdm, apdf, true, apdm, apdf, true, true},
		{"symmetric vs port-restricted", apdm, apdf, false, eim, apdf, false, false},
		{"symmetric vs full-cone", apdm, apdf, false, eim, eif, false, false},
		{"symmetric+EIF pair", apdm, eif, false, apdm, eif, false, true},
		{"restricted pair", eim, adf, false, eim, adf, false, true},
		{"restricted vs symmetric", eim, adf, false, apdm, apdf, false, false},
	}
	for _, c := range cases {
		if got := PredictTraversal(c.mA, c.fA, c.pA, c.mB, c.fB, c.pB); got != c.want {
			t.Errorf("%s: PredictTraversal = %v, want %v", c.name, got, c.want)
		}
		// Traversal prediction is symmetric in its arguments.
		if got := PredictTraversal(c.mB, c.fB, c.pB, c.mA, c.fA, c.pA); got != c.want {
			t.Errorf("%s (swapped): PredictTraversal = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBehaviorStringers keeps the class names stable: probes and report
// renders print them.
func TestBehaviorStringers(t *testing.T) {
	if MappingEndpointIndependent.Short() != "EIM" || FilteringAddressDependent.Short() != "ADF" {
		t.Fatal("short names changed")
	}
	if MappingAddressAndPortDependent.String() != "address-and-port-dependent" {
		t.Fatal("long names changed")
	}
	if PortAllocRandom.String() != "random" {
		t.Fatal("alloc names changed")
	}
}
