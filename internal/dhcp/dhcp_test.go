package dhcp

import (
	"net/netip"
	"testing"
	"time"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
	"hgw/internal/udp"
)

func TestMessageRoundtrip(t *testing.T) {
	m := &Message{Op: 1, XID: 0xdeadbeef, CHAddr: netpkt.MAC{1, 2, 3, 4, 5, 6}}
	m.setOption(OptMsgType, []byte{Discover})
	m.SetAddrOption(OptRequestedIP, netpkt.Addr4(192, 168, 1, 50))
	var got Message
	if err := got.Parse(m.AppendMarshal(nil)); err != nil {
		t.Fatal(err)
	}
	if got.XID != m.XID || got.CHAddr != m.CHAddr || got.Type() != Discover {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if a, ok := got.AddrOption(OptRequestedIP); !ok || a != netpkt.Addr4(192, 168, 1, 50) {
		t.Fatalf("requested IP = %v %v", a, ok)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	var m Message
	if err := m.Parse([]byte("short")); err == nil {
		t.Fatal("short message accepted")
	}
	b := make([]byte, 240) // zero magic
	if err := m.Parse(b); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestMaskLen(t *testing.T) {
	cases := map[int]netip.Addr{
		24: netpkt.Addr4(255, 255, 255, 0),
		16: netpkt.Addr4(255, 255, 0, 0),
		30: netpkt.Addr4(255, 255, 255, 252),
		0:  netpkt.Addr4(0, 0, 0, 0),
	}
	//hgwlint:allow detlint per-entry assertions commute; any visit order fails the same way
	for want, mask := range cases {
		if got := MaskLen(mask); got != want {
			t.Fatalf("MaskLen(%v) = %d, want %d", mask, got, want)
		}
	}
	for plen := 0; plen <= 32; plen++ {
		if got := MaskLen(netip.AddrFrom4(maskBytes(plen))); got != plen {
			t.Fatalf("roundtrip plen %d -> %d", plen, got)
		}
	}
}

func TestAcquireLease(t *testing.T) {
	s := sim.New(1)
	srvHost := stack.NewHost(s, "server")
	cliHost := stack.NewHost(s, "client")
	si := srvHost.AddIf("vlan1", netpkt.Addr4(10, 0, 1, 1), 24)
	ci := cliHost.AddIf("eth0", netip.Addr{}, 0)
	netem.Connect(s, si.Link, ci.Link, netem.LinkConfig{})
	sus := udp.New(srvHost)
	cus := udp.New(cliHost)

	srv, err := NewServer(sus, ServerConfig{
		If: si, PoolStart: netpkt.Addr4(10, 0, 1, 100), PoolSize: 10,
		Mask: 24, Router: netpkt.Addr4(10, 0, 1, 1), DNS: netpkt.Addr4(10, 0, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var lease *Lease
	var aerr error
	s.Spawn("client", func(p *sim.Proc) {
		lease, aerr = Acquire(p, cus, ci, ClientConfig{
			ExtraRoutes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		})
	})
	s.Run(time.Minute)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if lease.Addr != netpkt.Addr4(10, 0, 1, 100) || lease.Plen != 24 {
		t.Fatalf("lease = %+v", lease)
	}
	if lease.Router != netpkt.Addr4(10, 0, 1, 1) || lease.DNS != netpkt.Addr4(10, 0, 1, 1) {
		t.Fatalf("lease options = %+v", lease)
	}
	if ci.Addr != lease.Addr {
		t.Fatal("interface not configured")
	}
	// The extra route must be installed via the learned router.
	r, ok := cliHost.Lookup(netpkt.Addr4(10, 0, 5, 5))
	if !ok || r.NextHop != netpkt.Addr4(10, 0, 1, 1) {
		t.Fatalf("route = %+v ok=%v", r, ok)
	}
	// No default route in paper mode.
	if _, ok := cliHost.Lookup(netpkt.Addr4(8, 8, 8, 8)); ok {
		t.Fatal("unexpected default route")
	}
	if len(srv.leases) != 1 || srv.leases[0] != ci.Link.MAC {
		t.Fatalf("server leases = %v, want the client's %v", srv.leases, ci.Link.MAC)
	}
}

func TestAcquireStableLease(t *testing.T) {
	// Re-acquiring from the same MAC must return the same address.
	s := sim.New(1)
	srvHost := stack.NewHost(s, "server")
	cliHost := stack.NewHost(s, "client")
	si := srvHost.AddIf("vlan1", netpkt.Addr4(10, 0, 1, 1), 24)
	ci := cliHost.AddIf("eth0", netip.Addr{}, 0)
	netem.Connect(s, si.Link, ci.Link, netem.LinkConfig{})
	sus := udp.New(srvHost)
	cus := udp.New(cliHost)
	if _, err := NewServer(sus, ServerConfig{
		If: si, PoolStart: netpkt.Addr4(10, 0, 1, 100), PoolSize: 10, Mask: 24,
	}); err != nil {
		t.Fatal(err)
	}
	var a1, a2 netip.Addr
	s.Spawn("client", func(p *sim.Proc) {
		l1, err := Acquire(p, cus, ci, ClientConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		a1 = l1.Addr
		l2, err := Acquire(p, cus, ci, ClientConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		a2 = l2.Addr
	})
	s.Run(time.Minute)
	if a1 != a2 || !a1.IsValid() {
		t.Fatalf("leases differ: %v vs %v", a1, a2)
	}
}

func TestAcquireTimesOutWithoutServer(t *testing.T) {
	s := sim.New(1)
	cliHost := stack.NewHost(s, "client")
	ci := cliHost.AddIf("eth0", netip.Addr{}, 0)
	dead := &netem.Iface{Name: "dead", Recv: func(f *netpkt.Frame) {}}
	netem.Connect(s, ci.Link, dead, netem.LinkConfig{})
	cus := udp.New(cliHost)
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = Acquire(p, cus, ci, ClientConfig{})
	})
	s.Run(time.Minute)
	if err == nil {
		t.Fatal("Acquire succeeded with no server")
	}
}
