package nat

import (
	"net/netip"
	"testing"
	"testing/quick"

	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

func TestWipeBindings(t *testing.T) {
	s := sim.New(1)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving})
	var exts []uint16
	for i := 0; i < 4; i++ {
		outboundUDP(e, uint16(5000+i), 7000)
		b, ok := e.byFlow[flowOf(netpkt.ProtoUDP, client, uint16(5000+i), server, 7000)]
		if !ok {
			t.Fatalf("binding %d missing", i)
		}
		exts = append(exts, b.ext)
	}
	if n := e.WipeBindings(); n != 4 {
		t.Fatalf("WipeBindings returned %d, want 4", n)
	}
	if len(e.byFlow) != 0 {
		t.Fatalf("%d bindings survived the wipe", len(e.byFlow))
	}

	// Inbound to each wiped port is dropped with the reboot-typed
	// reason, not the generic no-binding one.
	for _, ext := range exts {
		if inboundUDP(e, ext, 7000) {
			t.Fatalf("inbound to wiped port %d relayed", ext)
		}
	}
	if got := e.Drops[DropBindingLostReboot]; got != 4 {
		t.Fatalf("binding-lost-reboot drops = %d, want 4", got)
	}
	if got := e.Drops[DropUDPNoBinding]; got != 0 {
		t.Fatalf("generic no-binding drops = %d, want 0 for wiped ports", got)
	}
	// Inbound to a never-bound port stays generically typed.
	if inboundUDP(e, 39999, 7000) {
		t.Fatal("inbound to never-bound port relayed")
	}
	if got := e.Drops[DropUDPNoBinding]; got != 1 {
		t.Fatalf("never-bound drop reason = %v counts, want 1 generic", e.DropCounts())
	}
	if got := reg.Snapshot().Counters[obs.CNATBindingsWiped]; got != 4 {
		t.Fatalf("nat_bindings_wiped = %d, want 4", got)
	}
}

// TestWipeBindingsLostPortReclaim: re-binding a wiped external port
// clears its lost marker, so post-reboot flows get the generic drop
// typing again once the port is back in use and then expires.
func TestWipeBindingsLostPortReclaim(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving})
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	ext := b.ext
	e.WipeBindings()

	// The same flow re-binds (port preservation gives it the same ext
	// port), reclaiming the port from the lost set.
	outboundUDP(e, 5000, 7000)
	nb, ok := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	if !ok || nb.ext != ext {
		t.Fatalf("re-bind ext = %v, want reclaimed %d", nb, ext)
	}
	if !inboundUDP(e, ext, 7000) {
		t.Fatal("inbound to re-bound port dropped")
	}
	if got := e.Drops[DropBindingLostReboot]; got != 0 {
		t.Fatalf("reclaimed port still typed as reboot-lost: %d drops", got)
	}
}

func TestWipeBindingsEmptyEngine(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{})
	if n := e.WipeBindings(); n != 0 {
		t.Fatalf("empty wipe returned %d", n)
	}
}

// TestWipedInboundDropAllocs pins the degraded path: dropping inbound
// traffic to reboot-wiped bindings — the §4.4 storm a fleet-wide chaos
// plan produces — must not allocate.
func TestWipedInboundDropAllocs(t *testing.T) {
	s := sim.New(1)
	e := newEng(s, Policy{PortAlloc: PortAllocPreserving})
	outboundUDP(e, 5000, 7000)
	b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
	ext := b.ext
	e.WipeBindings()

	u := &netpkt.UDP{SrcPort: 7000, DstPort: ext, Payload: []byte("resp")}
	ip := &netpkt.IPv4{
		Protocol: netpkt.ProtoUDP, TTL: 64,
		Src: server, Dst: wan,
		Payload: u.AppendMarshal(nil, server, wan),
	}
	if e.Inbound(ip) {
		t.Fatal("inbound to wiped binding relayed")
	}
	if n := testing.AllocsPerRun(100, func() {
		if e.Inbound(ip) {
			t.Fatal("inbound relayed")
		}
	}); n != 0 {
		t.Fatalf("wiped-binding inbound drop allocates %.1f objects per run, want 0", n)
	}
}

// TestIP4KeyOrder: the NAT tables key on IPv4 addresses as numbers, and
// WipeBindings sorts by them, so numeric order must be netip.Addr's
// order and the conversion must round-trip.
func TestIP4KeyOrder(t *testing.T) {
	f := func(a, b [4]byte) bool {
		x, y := netip.AddrFrom4(a), netip.AddrFrom4(b)
		return (ip4Of(x) < ip4Of(y)) == x.Less(y) && ip4Of(x).addr() == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}
