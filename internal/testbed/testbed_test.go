package testbed

import (
	"net/netip"
	"testing"
	"time"

	"hgw/internal/nat"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/udp"
)

func TestSetupThreeDevices(t *testing.T) {
	tb, s := Run(Config{Tags: []string{"je", "ls1", "owrt"}})
	if len(tb.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(tb.Nodes))
	}
	for _, n := range tb.Nodes {
		if !n.WANAddr.IsValid() {
			t.Fatalf("%s: no WAN address", n.Tag)
		}
		if !n.ClientAddr.IsValid() {
			t.Fatalf("%s: no client address", n.Tag)
		}
		if n.WANAddr != netpkt.Addr4(10, 0, byte(n.Index), 50) {
			t.Fatalf("%s: WAN = %v", n.Tag, n.WANAddr)
		}
	}
	// Client can reach the per-node server address through each NAT:
	// an ICMP echo request sent by the client's stack is answered.
	replied := map[netip.Addr]bool{}
	tb.Client.Host.ListenICMP(func(from netip.Addr, ic *netpkt.ICMP, inner *netpkt.IPv4) {
		if ic.Type == netpkt.ICMPEchoReply {
			replied[from] = true
		}
	})
	s.Spawn("ping", func(p *sim.Proc) {
		for i, n := range tb.Nodes[:2] { // je, ls1
			req := &netpkt.ICMP{Type: netpkt.ICMPEchoRequest, Rest: uint32(i + 1), Body: []byte("hgw-ping")}
			tb.Client.Host.Send(&netpkt.IPv4{Protocol: netpkt.ProtoICMP, Dst: n.ServerAddr, Payload: req.Marshal()})
			p.Sleep(2 * time.Second)
		}
	})
	s.Run(0)
	for _, n := range tb.Nodes[:2] {
		if !replied[n.ServerAddr] {
			t.Fatalf("ping through %s failed", n.Tag)
		}
	}
}

func TestUDPEchoThroughNAT(t *testing.T) {
	tb, s := Run(Config{Tags: []string{"to"}})
	n := tb.Nodes[0]
	srv, err := tb.Server.UDP.Bind(netpkt.Addr4(0, 0, 0, 0), 7)
	if err != nil {
		t.Fatal(err)
	}
	// netip zero means wildcard in our API; rebind properly.
	srv.Close()
	srv, err = tb.Server.UDP.Bind(netipZero(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var observedSrc netip.Addr
	s.Spawn("echo-server", func(p *sim.Proc) {
		for {
			d, ok := srv.Recv(p, 30*time.Second)
			if !ok {
				return
			}
			observedSrc = d.From
			srv.SendTo(d.From, d.FromPort, d.Data)
		}
	})
	var echoed bool
	s.Spawn("client", func(p *sim.Proc) {
		c, err := tb.Client.UDP.Dial(n.ServerAddr, 7)
		if err != nil {
			t.Error(err)
			return
		}
		c.Send([]byte("ping"))
		d, ok := c.Recv(p, 5*time.Second)
		echoed = ok && string(d.Data) == "ping"
	})
	s.Run(0)
	if !echoed {
		t.Fatal("UDP echo through NAT failed")
	}
	// The server must have seen the gateway's WAN address, not the
	// client's private one — i.e. translation actually happened.
	if observedSrc != n.WANAddr {
		t.Fatalf("server saw the datagram from %v, want the WAN address %v", observedSrc, n.WANAddr)
	}
}

func TestTCPThroughNAT(t *testing.T) {
	tb, s := Run(Config{Tags: []string{"bu1"}})
	n := tb.Nodes[0]
	// The connection must appear to come from the WAN address.
	var peers []netip.Addr
	n.ServerIf.Link.Tap = func(dir string, f *netpkt.Frame) {
		if ip, err := netpkt.ParseIPv4(f.Payload); dir == "rx" && err == nil && ip.Protocol == netpkt.ProtoTCP {
			peers = append(peers, ip.Src)
		}
	}
	lis, err := tb.Server.TCP.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 10*time.Second)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		var buf [1024]byte
		k, err := c.Read(p, buf[:], 10*time.Second)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		got = string(buf[:k])
		c.Close()
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := tb.Client.TCP.Connect(p, n.ServerAddr, 8080, 0, 10*time.Second)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.Write(p, []byte("hello-through-nat"))
		c.Close()
	})
	s.Run(0)
	if got != "hello-through-nat" {
		t.Fatalf("got %q", got)
	}
	if len(peers) == 0 {
		t.Fatal("no TCP segment reached the server")
	}
	for _, peer := range peers {
		if peer != n.WANAddr {
			t.Fatalf("segment from %v, want %v", peer, n.WANAddr)
		}
	}
}

func TestDNSProxyResolves(t *testing.T) {
	tb, s := Run(Config{Tags: []string{"owrt"}})
	n := tb.Nodes[0]
	var answer string
	s.Spawn("client", func(p *sim.Proc) {
		// Query the gateway's DNS proxy (the address DHCP handed out).
		c, err := tb.Client.UDP.Dial(n.Dev.LANAddr(), 53)
		if err != nil {
			t.Error(err)
			return
		}
		q, _ := dnsQuery(1, ServerName)
		c.Send(q)
		d, ok := c.Recv(p, 5*time.Second)
		if !ok {
			t.Error("no DNS answer")
			return
		}
		answer = dnsFirstA(d.Data)
	})
	s.Run(0)
	if answer != "10.0.1.1" {
		t.Fatalf("answer = %q", answer)
	}
}

func TestFullPopulationBoots(t *testing.T) {
	if testing.Short() {
		t.Skip("34-device boot in -short mode")
	}
	tb, _ := Run(Config{})
	if len(tb.Nodes) != 34 {
		t.Fatalf("nodes = %d, want 34", len(tb.Nodes))
	}
	for _, n := range tb.Nodes {
		if !n.WANAddr.IsValid() || !n.ClientAddr.IsValid() {
			t.Fatalf("%s not configured", n.Tag)
		}
	}
}

func TestUnsolicitedInboundBlocked(t *testing.T) {
	// The server sends to a gateway's WAN address with no binding: the
	// NAT must drop it and the client must see nothing.
	tb, s := Run(Config{Tags: []string{"bu1"}})
	n := tb.Nodes[0]
	cli, err := tb.Client.UDP.Bind(netipZero(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := tb.Server.UDP.BindIf(n.ServerIf, 4001)
	var got bool
	s.Spawn("probe", func(p *sim.Proc) {
		srv.SendTo(n.WANAddr, 4000, []byte("unsolicited"))
		_, got = cli.Recv(p, 2*time.Second)
	})
	s.Run(0)
	if got {
		t.Fatal("unsolicited inbound datagram traversed the NAT")
	}
	if n.Dev.Engine.Drops[nat.DropUDPNoBinding] == 0 {
		t.Fatal("drop not accounted")
	}
}

func TestVLANIsolationBetweenNodes(t *testing.T) {
	// The client has interface-specific routes: traffic for node A's
	// server subnet must go through node A's gateway, and node B's
	// gateway must never see it.
	tb, s := Run(Config{Tags: []string{"je", "to"}})
	a, b := tb.Nodes[0], tb.Nodes[1]
	srv, _ := tb.Server.UDP.BindIf(a.ServerIf, 4100)
	seenByB := 0
	b.Dev.LANIf.Link.Tap = func(dir string, f *netpkt.Frame) {
		if ip, err := netpkt.ParseIPv4(f.Payload); err == nil && ip.Dst == a.ServerAddr {
			seenByB++
		}
	}
	var from netip.Addr
	var ok bool
	s.Spawn("probe", func(p *sim.Proc) {
		c, _ := tb.Client.UDP.Dial(a.ServerAddr, 4100)
		c.Send([]byte("via-A"))
		var d udp.Datagram
		d, ok = srv.Recv(p, 2*time.Second)
		from = d.From
	})
	s.Run(0)
	if !ok {
		t.Fatal("probe via node A failed")
	}
	if from != a.WANAddr {
		t.Fatalf("probe arrived from %v, want node A's WAN address %v", from, a.WANAddr)
	}
	if seenByB != 0 {
		t.Fatalf("node B's LAN port saw %d packets of node A's flow", seenByB)
	}
}

func TestNonHairpinDeviceEatsHairpinTraffic(t *testing.T) {
	tb, s := Run(Config{Tags: []string{"dl2"}}) // dl2: no hairpinning
	n := tb.Nodes[0]
	srv, _ := tb.Server.UDP.BindIf(n.ServerIf, 4200)
	var got bool
	s.Spawn("probe", func(p *sim.Proc) {
		c1, _ := tb.Client.UDP.Bind(netipZero(), 0)
		c1.SendTo(n.ServerAddr, 4200, []byte("bind"))
		d, ok := srv.Recv(p, 2*time.Second)
		if !ok {
			t.Error("binding setup failed")
			return
		}
		c2, _ := tb.Client.UDP.Dial(n.WANAddr, d.FromPort)
		c2.Send([]byte("hairpin?"))
		_, got = c1.Recv(p, 2*time.Second)
	})
	s.Run(0)
	if got {
		t.Fatal("hairpin traffic delivered by a non-hairpinning device")
	}
}
