package stack

import (
	"net/netip"
	"testing"
	"time"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

func twoHosts(s *sim.Sim) (*Host, *Host) {
	ha := NewHost(s, "a")
	hb := NewHost(s, "b")
	ia := ha.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
	ib := hb.AddIf("eth0", netpkt.Addr4(10, 0, 0, 2), 24)
	netem.Connect(s, ia.Link, ib.Link, netem.LinkConfig{})
	return ha, hb
}

func TestARPAndDelivery(t *testing.T) {
	s := sim.New(1)
	ha, hb := twoHosts(s)
	var got []byte
	hb.Handle(200, func(ifc *NetIf, ip *netpkt.IPv4) bool { got = ip.Payload; return true })
	s.After(0, func() {
		ha.Send(&netpkt.IPv4{Protocol: 200, Dst: netpkt.Addr4(10, 0, 0, 2), Payload: []byte("hi")})
	})
	s.Run(0)
	if string(got) != "hi" {
		t.Fatalf("got %q", got)
	}
	// Second packet must not re-ARP: count ARP frames.
	arps := 0
	ha.ifaces[0].Link.Tap = func(dir string, f *netpkt.Frame) {
		if dir == "tx" && f.Type == netpkt.EtherTypeARP {
			arps++
		}
	}
	s.After(0, func() {
		ha.Send(&netpkt.IPv4{Protocol: 200, Dst: netpkt.Addr4(10, 0, 0, 2), Payload: []byte("again")})
	})
	s.Run(0)
	if arps != 0 {
		t.Fatalf("re-ARPed %d times", arps)
	}
}

func TestARPTimeoutDropsQueue(t *testing.T) {
	s := sim.New(1)
	ha := NewHost(s, "a")
	ia := ha.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
	// Link to a dead interface that never answers ARP.
	dead := &netem.Iface{Name: "dead"}
	dead.Recv = func(f *netpkt.Frame) {}
	netem.Connect(s, ia.Link, dead, netem.LinkConfig{})
	ok := true
	s.After(0, func() {
		ok = ha.Send(&netpkt.IPv4{Protocol: 200, Dst: netpkt.Addr4(10, 0, 0, 9), Payload: []byte("x")})
	})
	s.Run(0)
	if !ok {
		t.Fatal("Send returned false despite having a route")
	}
	if len(ia.await) != 0 {
		t.Fatal("ARP wait queue not cleaned up")
	}
}

func TestRoutingLongestPrefix(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "r")
	if1 := h.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
	if2 := h.AddIf("eth1", netpkt.Addr4(10, 0, 1, 1), 24)
	mustPrefix := func(a string) (p netipPrefix) { return parsePrefix(t, a) }
	h.AddRoute(mustPrefix("0.0.0.0/0"), netpkt.Addr4(10, 0, 0, 254), if1)
	h.AddRoute(mustPrefix("192.168.0.0/16"), netpkt.Addr4(10, 0, 1, 254), if2)
	// Prefixes that cannot hold an IPv4 address never match.
	h.AddRoute(netipPrefix{}, netipAddr{}, if2)
	h.AddRoute(mustPrefix("::/0"), netipAddr{}, if2)

	r, ok := h.Lookup(netpkt.Addr4(192, 168, 5, 5))
	if !ok || r.If != if2 {
		t.Fatalf("lookup 192.168.5.5 -> %+v", r)
	}
	r, ok = h.Lookup(netpkt.Addr4(8, 8, 8, 8))
	if !ok || r.If != if1 {
		t.Fatalf("lookup 8.8.8.8 -> %+v", r)
	}
	r, ok = h.Lookup(netpkt.Addr4(10, 0, 1, 7))
	if !ok || r.If != if2 || r.NextHop.IsValid() {
		t.Fatalf("connected route lookup -> %+v", r)
	}
	if r, ok = h.Lookup(netip.MustParseAddr("::ffff:8.8.8.8")); ok {
		t.Fatalf("IPv4-mapped IPv6 lookup -> %+v", r)
	}
	removeRoutesVia(h, if2)
	r, ok = h.Lookup(netpkt.Addr4(192, 168, 5, 5))
	if !ok || r.If != if1 {
		t.Fatalf("after removal lookup -> %+v ok=%v", r, ok)
	}
}

// ping sends an ICMP echo request to dst and reports whether a reply
// arrives within timeout.
func ping(h *Host, p *sim.Proc, dst netip.Addr, timeout time.Duration) bool {
	id := uint32(h.NextIPID())<<16 | 1
	got := sim.NewChan[struct{}](h.S)
	h.ListenICMP(func(from netip.Addr, ic *netpkt.ICMP, inner *netpkt.IPv4) {
		if ic.Type == netpkt.ICMPEchoReply && ic.Rest == id {
			got.Send(struct{}{})
		}
	})
	req := &netpkt.ICMP{Type: netpkt.ICMPEchoRequest, Rest: id, Body: []byte("hgw-ping")}
	if !h.Send(&netpkt.IPv4{Protocol: netpkt.ProtoICMP, Dst: dst, Payload: req.Marshal()}) {
		return false
	}
	_, ok := got.Recv(p, timeout)
	return ok
}

func TestPing(t *testing.T) {
	s := sim.New(1)
	ha, _ := twoHosts(s)
	var alive, dead bool
	s.Spawn("pinger", func(p *sim.Proc) {
		alive = ping(ha, p, netpkt.Addr4(10, 0, 0, 2), time.Second)
		dead = ping(ha, p, netpkt.Addr4(10, 0, 0, 77), time.Second)
	})
	s.Run(0)
	if !alive {
		t.Fatal("ping to live host failed")
	}
	if dead {
		t.Fatal("ping to absent host succeeded")
	}
}

func TestProtoUnreachable(t *testing.T) {
	s := sim.New(1)
	ha, _ := twoHosts(s)
	var gotType, gotCode uint8
	ha.ListenICMP(func(from netipAddr, ic *netpkt.ICMP, inner *netpkt.IPv4) {
		gotType, gotCode = ic.Type, ic.Code
	})
	s.After(0, func() {
		ha.Send(&netpkt.IPv4{Protocol: 111, Dst: netpkt.Addr4(10, 0, 0, 2), Payload: []byte("xxxxxxxx")})
	})
	s.Run(0)
	if gotType != netpkt.ICMPDestUnreachable || gotCode != netpkt.ICMPCodeProtoUnreachable {
		t.Fatalf("got type=%d code=%d", gotType, gotCode)
	}
}

func TestICMPErrorEmbedsHeaders(t *testing.T) {
	s := sim.New(1)
	ha, hb := twoHosts(s)
	var inner *netpkt.IPv4
	ha.ListenICMP(func(from netipAddr, ic *netpkt.ICMP, in *netpkt.IPv4) { inner = in })
	hb.Handle(222, func(ifc *NetIf, ip *netpkt.IPv4) bool {
		hb.SendICMPError(ip, netpkt.ICMPTimeExceeded, netpkt.ICMPCodeTTLExceeded, 0)
		return false
	})
	s.After(0, func() {
		ha.Send(&netpkt.IPv4{Protocol: 222, Dst: netpkt.Addr4(10, 0, 0, 2), Payload: []byte("original-payload")})
	})
	s.Run(0)
	if inner == nil {
		t.Fatal("no embedded datagram")
	}
	if inner.Protocol != 222 || inner.Src != netpkt.Addr4(10, 0, 0, 1) {
		t.Fatalf("embedded header wrong: %+v", inner)
	}
	if string(inner.Payload) != "original-payload" {
		t.Fatalf("embedded payload %q", inner.Payload)
	}
}

func TestNoICMPErrorAboutICMPError(t *testing.T) {
	s := sim.New(1)
	ha, _ := twoHosts(s)
	orig := &netpkt.IPv4{
		Protocol: netpkt.ProtoICMP,
		Src:      netpkt.Addr4(10, 0, 0, 2), Dst: netpkt.Addr4(10, 0, 0, 1),
		Payload: (&netpkt.ICMP{Type: netpkt.ICMPDestUnreachable}).Marshal(),
	}
	if ha.SendICMPError(orig, netpkt.ICMPTimeExceeded, 0, 0) {
		t.Fatal("generated ICMP error about an ICMP error")
	}
}

func TestRawHookConsumes(t *testing.T) {
	s := sim.New(1)
	ha, hb := twoHosts(s)
	hooked := 0
	hb.RawHook = func(ifc *NetIf, ip *netpkt.IPv4) bool {
		if ip.Protocol == 233 {
			hooked++
			return true
		}
		return false
	}
	delivered := 0
	hb.Handle(233, func(ifc *NetIf, ip *netpkt.IPv4) bool { delivered++; return false })
	s.After(0, func() {
		ha.Send(&netpkt.IPv4{Protocol: 233, Dst: netpkt.Addr4(10, 0, 0, 2), Payload: []byte("12345678")})
	})
	s.Run(0)
	if hooked != 1 || delivered != 0 {
		t.Fatalf("hooked=%d delivered=%d", hooked, delivered)
	}
}

func TestForwardHookSeesNonLocal(t *testing.T) {
	s := sim.New(1)
	ha, hb := twoHosts(s)
	var fwd *netpkt.IPv4
	hb.ForwardHook = func(ifc *NetIf, ip *netpkt.IPv4) { fwd = ip }
	s.After(0, func() {
		// Address on b's subnet but not b itself; ARP resolves to b only
		// if we seed it (simulating a gateway MAC).
		ha.ifaces[0].arp.set(netpkt.Addr4(10, 0, 0, 99), hb.ifaces[0].Link.MAC)
		ha.AddRoute(parsePrefix(t, "99.0.0.0/8"), netpkt.Addr4(10, 0, 0, 99), ha.ifaces[0])
		ha.Send(&netpkt.IPv4{Protocol: 200, Dst: netpkt.Addr4(99, 1, 2, 3), Payload: []byte("fwd")})
	})
	s.Run(0)
	if fwd == nil || fwd.Dst != netpkt.Addr4(99, 1, 2, 3) {
		t.Fatalf("forward hook got %+v", fwd)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	s := sim.New(1)
	ha, hb := twoHosts(s)
	var got bool
	hb.Handle(250, func(ifc *NetIf, ip *netpkt.IPv4) bool { got = true; return false })
	s.After(0, func() {
		ha.Send(&netpkt.IPv4{
			Protocol: 250,
			Src:      netpkt.Addr4(10, 0, 0, 1),
			Dst:      netpkt.Addr4(255, 255, 255, 255),
			Payload:  []byte("bcast"),
		})
	})
	// Need a broadcast route.
	ha.AddRoute(parsePrefix(t, "255.255.255.255/32"), netipAddr{}, ha.ifaces[0])
	s.Run(0)
	if !got {
		t.Fatal("broadcast not delivered")
	}
}

func TestNewMACUnique(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "x")
	seen := map[netpkt.MAC]bool{}
	for i := 0; i < 100; i++ {
		m := h.NewMAC()
		if seen[m] {
			t.Fatalf("duplicate MAC %v", m)
		}
		seen[m] = true
	}
}
