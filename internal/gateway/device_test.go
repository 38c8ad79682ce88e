package gateway

import (
	"testing"
	"time"

	"hgw/internal/dhcp"
	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sim"
	"hgw/internal/stack"
	"hgw/internal/udp"
)

// rig builds a minimal WAN-server + device + LAN-client triangle around
// one profile (a one-node testbed without the testbed package, so this
// file exercises the device in isolation).
type rig struct {
	s      *sim.Sim
	dev    *Device
	server *stack.Host
	client *stack.Host
	sUDP   *udp.Stack
	cUDP   *udp.Stack
}

func buildRig(t testing.TB, prof Profile) *rig {
	t.Helper()
	s := sim.New(9)
	s.SetObs(obs.NewRegistry())
	r := &rig{s: s}

	r.server = stack.NewHost(s, "srv")
	sif := r.server.AddIf("vlan1", netpkt.Addr4(10, 0, 1, 1), 24)
	r.sUDP = udp.New(r.server)
	if _, err := dhcp.NewServer(r.sUDP, dhcp.ServerConfig{
		If: sif, PoolStart: netpkt.Addr4(10, 0, 1, 50), PoolSize: 4, Mask: 24,
		Router: netpkt.Addr4(10, 0, 1, 1), DNS: netpkt.Addr4(10, 0, 1, 1),
	}); err != nil {
		t.Fatal(err)
	}

	r.dev = New(s, prof, Config{LANAddr: netpkt.Addr4(192, 168, 1, 1)})

	r.client = stack.NewHost(s, "cli")
	cif := r.client.AddIf("lan0", netpkt.Addr4(192, 168, 1, 100), 24)
	r.client.AddRoute(mustPrefix(t, "10.0.1.0/24"), netpkt.Addr4(192, 168, 1, 1), cif)
	r.cUDP = udp.New(r.client)

	netem.Connect(s, sif.Link, r.dev.WANIf.Link, netem.LinkConfig{})
	netem.Connect(s, r.dev.LANIf.Link, cif.Link, netem.LinkConfig{})

	var bootErr error
	ready := r.dev.Start()
	s.Spawn("wait-boot", func(p *sim.Proc) {
		bootErr, _ = ready.Recv(p, 30*time.Second)
	})
	s.Run(time.Minute)
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	if !r.dev.WANAddr().IsValid() {
		t.Fatal("device did not boot")
	}
	return r
}

func mustPrefix(t testing.TB, s string) (p netipPrefix) {
	t.Helper()
	var err error
	p, err = parsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDeviceForwardsAndCounts(t *testing.T) {
	prof, _ := ByTag("bu1")
	r := buildRig(t, prof)
	srv, err := r.sUDP.Bind(netpkt.Addr4(10, 0, 1, 1), 9000)
	if err != nil {
		t.Fatal(err)
	}
	var echoed bool
	r.s.Spawn("probe", func(p *sim.Proc) {
		c, _ := r.cUDP.Dial(netpkt.Addr4(10, 0, 1, 1), 9000)
		c.Send([]byte("hi"))
		d, ok := srv.Recv(p, 2*time.Second)
		if !ok {
			return
		}
		srv.SendTo(d.From, d.FromPort, d.Data)
		_, echoed = c.Recv(p, 2*time.Second)
	})
	r.s.Run(0)
	if !echoed {
		t.Fatal("echo through device failed")
	}
	// The datagram and its echo: one translation each way.
	if n := r.s.Obs().Snapshot().Counters[obs.CNATTranslations]; n < 2 {
		t.Fatalf("%d translations, want the datagram and its echo", n)
	}
}

func TestDeviceTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	prof, _ := ByTag("bu1") // decrements TTL
	r := buildRig(t, prof)
	var gotType uint8
	r.client.ListenICMP(func(from netipAddr, ic *netpkt.ICMP, inner *netpkt.IPv4) {
		gotType = ic.Type
	})
	r.s.Spawn("probe", func(p *sim.Proc) {
		c, _ := r.cUDP.Dial(netpkt.Addr4(10, 0, 1, 1), 9000)
		c.SendTTL(netpkt.Addr4(10, 0, 1, 1), 9000, []byte("dying"), 1)
		p.Sleep(time.Second)
	})
	r.s.Run(0)
	if gotType != netpkt.ICMPTimeExceeded {
		t.Fatalf("got ICMP type %d, want Time Exceeded", gotType)
	}
}

// TestDeviceQueueDropsUnderOverload offers 56 Mb/s to a 6 Mb/s
// forwarding plane. The 100 Mb/s links carry that without queueing, so
// every datagram that does not reach the server died in the device's
// forwarding queue.
func TestDeviceQueueDropsUnderOverload(t *testing.T) {
	prof, _ := ByTag("dl10") // 6 Mb/s forwarding plane, small buffer
	r := buildRig(t, prof)
	srv, err := r.sUDP.Bind(netpkt.Addr4(10, 0, 1, 1), 9000)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 300
	r.s.Spawn("blast", func(p *sim.Proc) {
		c, _ := r.cUDP.Dial(netpkt.Addr4(10, 0, 1, 1), 9000)
		payload := make([]byte, 1400)
		for i := 0; i < sent; i++ {
			c.Send(payload)
			p.Sleep(200 * time.Microsecond)
		}
	})
	r.s.Run(0)
	got := 0
	for _, ok := srv.TryRecv(); ok; _, ok = srv.TryRecv() {
		got++
	}
	if got == 0 || got >= sent {
		t.Fatalf("%d of %d datagrams forwarded; want forwarding-queue drops and some traffic through", got, sent)
	}
}

func TestDeviceSameMACQuirkApplied(t *testing.T) {
	prof, _ := ByTag("dl10")
	s := sim.New(1)
	d := New(s, prof, Config{LANAddr: netpkt.Addr4(192, 168, 1, 1)})
	if d.WANIf.Link.MAC != d.LANIf.Link.MAC {
		t.Fatal("dl10 must share one MAC across ports")
	}
	prof2, _ := ByTag("bu1")
	d2 := New(s, prof2, Config{LANAddr: netpkt.Addr4(192, 168, 2, 1)})
	if d2.WANIf.Link.MAC == d2.LANIf.Link.MAC {
		t.Fatal("bu1 must use distinct MACs")
	}
}
