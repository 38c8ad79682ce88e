package dccp

import (
	"testing"
	"time"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
)

func pair(s *sim.Sim) (*Stack, *Stack) {
	ha := stack.NewHost(s, "a")
	hb := stack.NewHost(s, "b")
	ia := ha.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
	ib := hb.AddIf("eth0", netpkt.Addr4(10, 0, 0, 2), 24)
	netem.Connect(s, ia.Link, ib.Link, netem.LinkConfig{})
	return New(ha), New(hb)
}

func TestConnectAndData(t *testing.T) {
	s := sim.New(1)
	da, db := pair(s)
	lis, err := db.Listen(5001)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 10*time.Second)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		got, _ = c.rx.Recv(p, 10*time.Second)
	})
	var sendErr error
	s.Spawn("client", func(p *sim.Proc) {
		c, err := da.Connect(p, netpkt.Addr4(10, 0, 0, 2), 5001, 10*time.Second)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if c.state != 3 {
			t.Error("not open")
			return
		}
		sendErr = c.Send(p, []byte("dccp-data"))
		c.Close()
	})
	s.Run(time.Minute)
	if sendErr != nil {
		t.Fatalf("send: %v", sendErr)
	}
	if string(got) != "dccp-data" {
		t.Fatalf("got %q", got)
	}
}

func TestConnectTimeoutNoListener(t *testing.T) {
	s := sim.New(1)
	da, _ := pair(s)
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = da.Connect(p, netpkt.Addr4(10, 0, 0, 2), 5001, 3*time.Second)
	})
	s.Run(time.Minute)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestChecksumRejectsRewrittenSource(t *testing.T) {
	// A Request marshaled for one source address but delivered from a
	// different one (an IP-only NAT) must be dropped by the receiver, so
	// the connection never establishes. This is the mechanism behind
	// "DCCP worked through none of the 34 gateways".
	s := sim.New(1)
	ha := stack.NewHost(s, "a")
	hb := stack.NewHost(s, "b")
	ia := ha.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
	ib := hb.AddIf("eth0", netpkt.Addr4(10, 0, 0, 2), 24)
	netem.Connect(s, ia.Link, ib.Link, netem.LinkConfig{})
	db := New(hb)
	lis, _ := db.Listen(5001)

	responses := 0
	ia.Link.Tap = func(dir string, f *netpkt.Frame) {
		if dir != "rx" || f.Type != netpkt.EtherTypeIPv4 {
			return
		}
		if ip, _ := netpkt.ParseIPv4(f.Payload); ip != nil && ip.Protocol == netpkt.ProtoDCCP {
			responses++
		}
	}
	s.After(0, func() {
		// Hand-craft a Request whose checksum was computed for a
		// different (pre-NAT) source address.
		privateSrc := netpkt.Addr4(192, 168, 1, 5)
		dst := netpkt.Addr4(10, 0, 0, 2)
		d := &netpkt.DCCP{SrcPort: 50000, DstPort: 5001, Type: netpkt.DCCPRequest, Seq: 1, ServiceCode: ServiceCode}
		payload := d.Marshal(privateSrc, dst) // checksum for private addr
		ha.Send(&netpkt.IPv4{
			Protocol: netpkt.ProtoDCCP,
			Src:      netpkt.Addr4(10, 0, 0, 1), // "translated" source
			Dst:      dst,
			Payload:  payload,
		})
	})
	var accepted bool
	s.Spawn("server", func(p *sim.Proc) {
		_, err := lis.Accept(p, 3*time.Second)
		accepted = err == nil
	})
	s.Run(time.Minute)
	if accepted {
		t.Fatal("connection established despite broken pseudo-header checksum")
	}
	if responses != 0 {
		t.Fatalf("server responded %d times to an invalid Request", responses)
	}
}
