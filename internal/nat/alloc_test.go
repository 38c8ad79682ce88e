package nat

import (
	"testing"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// benchPolicy gives bindings the UDP timers of a typical profile, so
// every created or refreshed binding arms an expiry event.
var benchPolicy = Policy{
	PortAlloc: PortAllocPreserving,
	UDP:       UDPTimeouts{Outbound: 30 * time.Second, Inbound: 180 * time.Second, Bidir: 180 * time.Second},
}

// outboundBench replays one client datagram through e.Outbound from
// client port sport. The translation rewrites the packet in place, so
// every call restores it from the template first.
type outboundBench struct {
	tmpl, payload []byte
	ip            netpkt.IPv4
}

func newOutboundBench() *outboundBench {
	tmpl := udpPkt([2]uint16{0, 5000}, [2]uint16{0, 7000}).Payload
	return &outboundBench{tmpl: tmpl, payload: make([]byte, len(tmpl))}
}

func (o *outboundBench) send(tb testing.TB, e *Engine, sport uint16) {
	copy(o.payload, o.tmpl)
	netpkt.SetUDPPorts(o.payload, sport, 7000)
	o.ip = netpkt.IPv4{Protocol: netpkt.ProtoUDP, TTL: 64, Src: client, Dst: server, Payload: o.payload}
	if !e.Outbound(&o.ip) {
		tb.Fatal("outbound dropped")
	}
}

// TestAllocsNATTranslateHit pins the steady-flow path at zero
// allocations: translating a datagram of an existing binding rewrites
// it in place and re-arms the binding's timer through the slab.
func TestAllocsNATTranslateHit(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, benchPolicy)
	o := newOutboundBench()
	o.send(t, e, 5000)
	if n := testing.AllocsPerRun(100, func() { o.send(t, e, 5000) }); n != 0 {
		t.Fatalf("translate hit allocates %.1f objects per datagram, want 0", n)
	}
}

// BenchmarkNATSessionCreate is the bindrate path through the engine:
// every datagram comes from a fresh client port and creates a mapping,
// a session and an expiry timer. The table is wiped (untimed) every
// 4096 bindings so the port space never runs out.
func BenchmarkNATSessionCreate(b *testing.B) {
	s := sim.New(1)
	e := newEng(s, benchPolicy)
	o := newOutboundBench()
	const batch = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 && i > 0 {
			b.StopTimer()
			e.WipeBindings()
			b.StartTimer()
		}
		o.send(b, e, uint16(10000+i%batch))
	}
}

// BenchmarkNATTranslateHit is the steady-flow path: every datagram
// hits one existing binding, is rewritten in place and re-arms the
// binding's expiry timer.
func BenchmarkNATTranslateHit(b *testing.B) {
	s := sim.New(1)
	e := newEng(s, benchPolicy)
	o := newOutboundBench()
	o.send(b, e, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.send(b, e, 5000)
	}
}

// TestAllocsNATSessionCreate pins the bindrate path through the engine
// at zero allocations per new binding once the engine has held that
// many: the session, mapping and port owner records come back from the
// engine's free lists, and the expiry timer fires the binding itself.
// The binding maps are warmed to their size first.
func TestAllocsNATSessionCreate(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, benchPolicy)
	o := newOutboundBench()
	const batch = 4096
	for i := 0; i < batch; i++ {
		o.send(t, e, uint16(10000+i))
	}
	e.WipeBindings()
	port := uint16(10000)
	if n := testing.AllocsPerRun(batch/2, func() {
		o.send(t, e, port)
		port++
	}); n != 0 {
		t.Fatalf("session create allocates %.1f objects per binding, want 0", n)
	}
	if got := len(e.byFlow); got != batch/2+1 {
		t.Fatalf("%d bindings, want %d", got, batch/2+1)
	}
}

// BenchmarkNATSessionChurn is a binding's whole life on the engine: a
// datagram from a fresh client port creates it, more datagrams refresh
// it (each moving its expiry timer in place), its timer expires it,
// and the next batch's bindings take over its records. One op is one
// binding.
func BenchmarkNATSessionChurn(b *testing.B) {
	s := sim.New(1)
	e := newEng(s, benchPolicy)
	o := newOutboundBench()
	const batch, refreshes = 256, 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port := uint16(10000 + i%batch)
		for k := 0; k <= refreshes; k++ {
			o.send(b, e, port)
		}
		if i%batch == batch-1 || i == b.N-1 {
			s.Run(s.Now() + benchPolicy.UDP.Outbound)
		}
	}
}
