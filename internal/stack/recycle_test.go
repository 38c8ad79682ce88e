package stack

import (
	"net/netip"
	"runtime"
	"testing"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

// chain builds a — r — b, two subnets joined by router r, whose
// ForwardHook sends every non-local packet on. ARP is seeded on a and
// b; r's ARP for b is seeded only when arp is true.
func chain(s *sim.Sim, arp bool) (a, r, b *Host) {
	a, r, b = NewHost(s, "a"), NewHost(s, "r"), NewHost(s, "b")
	ia := a.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
	ra := r.AddIf("eth0", netpkt.Addr4(10, 0, 0, 254), 24)
	rb := r.AddIf("eth1", netpkt.Addr4(10, 0, 1, 254), 24)
	ib := b.AddIf("eth0", netpkt.Addr4(10, 0, 1, 2), 24)
	netem.Connect(s, ia.Link, ra.Link, netem.LinkConfig{})
	netem.Connect(s, rb.Link, ib.Link, netem.LinkConfig{})
	a.AddRoute(netip.MustParsePrefix("0.0.0.0/0"), ra.Addr, ia)
	b.AddRoute(netip.MustParsePrefix("0.0.0.0/0"), rb.Addr, ib)
	ia.arp.set(ra.Addr, ra.Link.MAC)
	ra.arp.set(ia.Addr, ia.Link.MAC)
	ib.arp.set(rb.Addr, rb.Link.MAC)
	if arp {
		rb.arp.set(ib.Addr, ib.Link.MAC)
	}
	r.ForwardHook = func(in *NetIf, ip *netpkt.IPv4) { r.Send(ip) }
	return a, r, b
}

// TestFrameBufferRecycling checks the recycle points of DESIGN §9: a
// forwarded packet's ingress buffer goes back to the pool once the
// packet is re-marshaled, and a locally delivered one's when its
// protocol handler kept no view of it. The packet records parsed at r
// and b follow their buffers: each comes back zeroed from the point
// where its buffer is recycled.
func TestFrameBufferRecycling(t *testing.T) {
	for _, tc := range []struct {
		name string
		kept bool
		want uint64 // pool puts per packet
	}{
		{"handler copies", false, 2}, // r's ingress + b's frame
		{"handler keeps a view", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			a, r, b := chain(s, true)
			// r's record must be back in the pool by the time its frame
			// goes on the wire.
			var fwd *netpkt.IPv4
			var fwdRecycled bool
			r.ForwardHook = func(in *NetIf, ip *netpkt.IPv4) {
				fwd = ip
				r.Send(ip)
			}
			r.ifaces[1].Link.Tap = func(dir string, f *netpkt.Frame) {
				if dir == "tx" {
					fwdRecycled = recycled(fwd)
				}
			}
			var got []byte
			var rec *netpkt.IPv4
			b.Handle(240, func(ifc *NetIf, ip *netpkt.IPv4) bool {
				got = append(got[:0], ip.Payload...)
				rec = ip
				return tc.kept
			})
			before := obs.Proc.Snapshot()
			a.Send(&netpkt.IPv4{Protocol: 240, Dst: netpkt.Addr4(10, 0, 1, 2), Payload: []byte("forward-me")})
			s.Run(0)
			after := obs.Proc.Snapshot()
			if string(got) != "forward-me" {
				t.Fatalf("delivered %q", got)
			}
			if gets := after.PoolGets - before.PoolGets; gets != 2 {
				t.Fatalf("pool gets = %d, want 2 (one marshal per hop)", gets)
			}
			if puts := after.PoolPuts - before.PoolPuts; puts != tc.want {
				t.Fatalf("pool puts = %d, want %d", puts, tc.want)
			}
			if !fwdRecycled {
				t.Fatal("forwarded packet record not recycled after its send")
			}
			if recycled(rec) == tc.kept {
				t.Fatalf("delivered packet record recycled = %v, want %v", recycled(rec), !tc.kept)
			}
		})
	}
}

// recycled reports whether ip was zeroed by Pool.PutPacket. Nothing
// draws a record between the recycle points and the checks, so the
// record is still as the pool received it.
func recycled(ip *netpkt.IPv4) bool {
	return ip.Buf == nil && ip.Payload == nil && !ip.Src.IsValid() && ip.Protocol == 0
}

// TestParkedPacketKeepsBuffer forwards a packet whose next hop is not
// yet resolved: it waits behind ARP with its ingress buffer, and that
// buffer must survive the ARP traffic (whose own buffers do go back to
// the pool) to reach b intact.
func TestParkedPacketKeepsBuffer(t *testing.T) {
	s := sim.New(1)
	a, _, b := chain(s, false)
	var got []string
	b.Handle(240, func(ifc *NetIf, ip *netpkt.IPv4) bool {
		got = append(got, string(ip.Payload))
		return false
	})
	a.Send(&netpkt.IPv4{Protocol: 240, Dst: netpkt.Addr4(10, 0, 1, 2), Payload: []byte("parked-1")})
	a.Send(&netpkt.IPv4{Protocol: 240, Dst: netpkt.Addr4(10, 0, 1, 2), Payload: []byte("parked-2")})
	s.Run(0)
	if len(got) != 2 || got[0] != "parked-1" || got[1] != "parked-2" {
		t.Fatalf("delivered %q", got)
	}
}

// TestReservedSendIsInPlace checks that a packet built with
// IPv4.Reserve leaves the host in the buffer it reserved (one pool get
// for the whole send), byte-identical to a copied marshal.
func TestReservedSendIsInPlace(t *testing.T) {
	s := sim.New(1)
	ha, hb := twoHosts(s)
	ha.ifaces[0].arp.set(netpkt.Addr4(10, 0, 0, 2), hb.ifaces[0].Link.MAC)
	var wire []byte
	hb.ifaces[0].Link.Tap = func(dir string, f *netpkt.Frame) {
		if dir == "rx" {
			wire = append([]byte(nil), f.Payload...)
		}
	}
	hb.Handle(241, func(ifc *NetIf, ip *netpkt.IPv4) bool { return false })
	ip := &netpkt.IPv4{Protocol: 241, Dst: netpkt.Addr4(10, 0, 0, 2), Options: netpkt.RecordRouteOption(2)}
	ip.Payload = append(ip.Reserve(s.Pool(), 5), "inner"...)
	s.Pool().Flush() // count from here on
	before := obs.Proc.Snapshot()
	ha.Send(ip)
	s.Run(0)
	if gets := obs.Proc.Snapshot().PoolGets - before.PoolGets; gets != 0 {
		t.Fatalf("send drew %d more pool buffers after Reserve, want 0", gets)
	}
	ref := &netpkt.IPv4{Protocol: 241, Src: netpkt.Addr4(10, 0, 0, 1), Dst: netpkt.Addr4(10, 0, 0, 2),
		TTL: DefaultTTL, ID: 1, Options: netpkt.RecordRouteOption(2), Payload: []byte("inner")}
	if want := ref.Marshal(); string(wire) != string(want) {
		t.Fatalf("wire = % x\nwant   % x", wire, want)
	}
}

// TestAllocsSendVia pins a send to a resolved neighbour, and its
// delivery to a handler that keeps nothing, at zero allocations: the
// neighbour and protocol lookups scan short slices, and the record,
// frame and buffer all come from and return to the pools.
func TestAllocsSendVia(t *testing.T) {
	s := sim.New(1)
	ha, hb := twoHosts(s)
	ifc, dst := ha.ifaces[0], netpkt.Addr4(10, 0, 0, 2)
	ifc.arp.set(dst, hb.ifaces[0].Link.MAC)
	got := 0
	hb.Handle(242, func(ifc *NetIf, ip *netpkt.IPv4) bool {
		got++
		return false
	})
	pool := s.Pool()
	send := func() {
		ip := pool.GetPacket()
		ip.Protocol, ip.Dst = 242, dst
		ip.Payload = append(ip.Reserve(pool, 8), "sendvia!"...)
		ha.SendVia(ifc, dst, ip)
		s.Run(0)
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("SendVia to a resolved neighbour allocates %.1f objects per packet, want 0", n)
	}
	if got != 109 {
		t.Fatalf("delivered %d packets, want 109", got)
	}
}

// TestAllocsPoolSurvivesGC checks that a warmed domain's pool outlives
// GC cycles: right after two runtime.GC calls, a send → forward →
// deliver cycle across a router still draws every record, frame and
// buffer from the domain's own lists and allocates nothing.
func TestAllocsPoolSurvivesGC(t *testing.T) {
	s := sim.New(1)
	a, _, b := chain(s, true)
	got := 0
	b.Handle(240, func(ifc *NetIf, ip *netpkt.IPv4) bool {
		got++
		return false
	})
	pool, dst := s.Pool(), netpkt.Addr4(10, 0, 1, 2)
	cycle := func() {
		ip := pool.GetPacket()
		ip.Protocol, ip.Dst = 240, dst
		ip.Payload = append(ip.Reserve(pool, 12), "survives-gc!"...)
		a.Send(ip)
		s.Run(0)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	// Each measured run collects twice first, so a pool the GC empties
	// would be refilled inside the count. runtime.GC allocates a little
	// itself; that is measured alone and taken off.
	collect := func() {
		runtime.GC()
		runtime.GC()
	}
	gc := testing.AllocsPerRun(20, collect)
	if n := testing.AllocsPerRun(20, func() {
		collect()
		cycle()
	}) - gc; n != 0 {
		t.Fatalf("send → forward → deliver right after GC allocates %.1f objects per packet, want 0", n)
	}
	if got != 29 {
		t.Fatalf("delivered %d packets, want 29", got)
	}
}

// TestTablesOverwrite: a later ARP entry for an address replaces the
// earlier one, and a later handler for a protocol replaces the earlier
// one, as map stores did.
func TestTablesOverwrite(t *testing.T) {
	s := sim.New(1)
	ha, hb := twoHosts(s)
	ifc, dst := ha.ifaces[0], netpkt.Addr4(10, 0, 0, 2)
	ifc.arp.set(dst, netpkt.MAC{2, 0, 0, 0, 0, 9})
	ifc.arp.set(dst, hb.ifaces[0].Link.MAC)
	if mac, ok := ifc.arp.get(dst); !ok || mac != hb.ifaces[0].Link.MAC || len(ifc.arp) != 1 {
		t.Fatalf("neighbour table %v, want one entry for %v", ifc.arp, dst)
	}
	var got []string
	hb.Handle(243, func(ifc *NetIf, ip *netpkt.IPv4) bool { got = append(got, "first"); return false })
	hb.Handle(243, func(ifc *NetIf, ip *netpkt.IPv4) bool { got = append(got, "second"); return false })
	ha.Send(&netpkt.IPv4{Protocol: 243, Dst: dst, Payload: []byte("x")})
	s.Run(0)
	if len(got) != 1 || got[0] != "second" || len(hb.protos) != 1 {
		t.Fatalf("handlers ran %q with %d registered, want only the second", got, len(hb.protos))
	}
}
