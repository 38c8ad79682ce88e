package tcp

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
)

// pair builds two directly linked hosts with TCP stacks.
func pair(s *sim.Sim, cfg netem.LinkConfig) (ha, hb *stack.Host, ta, tb *Stack) {
	ha = stack.NewHost(s, "a")
	hb = stack.NewHost(s, "b")
	ia := ha.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
	ib := hb.AddIf("eth0", netpkt.Addr4(10, 0, 0, 2), 24)
	netem.Connect(s, ia.Link, ib.Link, cfg)
	return ha, hb, New(ha), New(hb)
}

func TestConnectTransferClose(t *testing.T) {
	s := sim.New(1)
	_, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, err := tb.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16 KB
	var got []byte
	var srvErr, cliErr error

	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 10*time.Second)
		if err != nil {
			srvErr = err
			return
		}
		for {
			data, err := c.ReadAppend(p, nil, 1<<16, 10*time.Second)
			if err == io.EOF {
				break
			}
			if err != nil {
				srvErr = err
				return
			}
			got = append(got, data...)
		}
		c.Close()
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 8080, 0, 10*time.Second)
		if err != nil {
			cliErr = err
			return
		}
		if err := c.Write(p, payload); err != nil {
			cliErr = err
			return
		}
		c.Close()
	})
	s.Run(0)
	if srvErr != nil || cliErr != nil {
		t.Fatalf("srvErr=%v cliErr=%v", srvErr, cliErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
}

func TestBulkTransferFastLink(t *testing.T) {
	s := sim.New(2)
	_, _, ta, tb := pair(s, netem.LinkConfig{Rate: 100e6})
	lis, _ := tb.Listen(5001)
	const total = 2 << 20 // 2 MB
	var rcvd int
	var done sim.Time
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 10*time.Second)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for {
			data, err := c.ReadAppend(p, nil, 1<<16, 30*time.Second)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			rcvd += len(data)
		}
		done = p.Now()
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 5001, 0, 10*time.Second)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		chunk := make([]byte, 32*1024)
		for sent := 0; sent < total; sent += len(chunk) {
			if err := c.Write(p, chunk); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		c.Close()
	})
	s.Run(0)
	if rcvd != total {
		t.Fatalf("received %d, want %d", rcvd, total)
	}
	// 2 MB over 100 Mb/s should take a bit over 160 ms; allow slack for
	// slow start but fail if throughput collapses.
	if done > 2*time.Second {
		t.Fatalf("transfer took %v, throughput collapsed", done)
	}
	gbps := float64(total*8) / done.Seconds() / 1e6
	if gbps < 60 {
		t.Fatalf("goodput %.1f Mb/s, want >= 60", gbps)
	}
}

func TestThroughputLimitedByBottleneck(t *testing.T) {
	s := sim.New(3)
	_, _, ta, tb := pair(s, netem.LinkConfig{Rate: 10e6, QueueBytes: 32 * 1024})
	lis, _ := tb.Listen(5001)
	const total = 1 << 20
	var rcvd int
	var done sim.Time
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 10*time.Second)
		if err != nil {
			return
		}
		for {
			data, err := c.ReadAppend(p, nil, 1<<16, time.Minute)
			if err != nil {
				break
			}
			rcvd += len(data)
		}
		done = p.Now()
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 5001, 0, 10*time.Second)
		if err != nil {
			return
		}
		chunk := make([]byte, 32*1024)
		for sent := 0; sent < total; sent += len(chunk) {
			if err := c.Write(p, chunk); err != nil {
				return
			}
		}
		c.Close()
	})
	s.Run(0)
	if rcvd != total {
		t.Fatalf("received %d, want %d", rcvd, total)
	}
	mbps := float64(total*8) / done.Seconds() / 1e6
	if mbps > 10 {
		t.Fatalf("goodput %.2f Mb/s exceeds 10 Mb/s line rate", mbps)
	}
	if mbps < 6 {
		t.Fatalf("goodput %.2f Mb/s too low for 10 Mb/s link (loss recovery broken?)", mbps)
	}
}

func TestConnectRefused(t *testing.T) {
	s := sim.New(4)
	_, _, ta, _ := pair(s, netem.LinkConfig{})
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 9999, 0, 10*time.Second)
	})
	s.Run(0)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestConnectTimeoutWhenUnreachable(t *testing.T) {
	s := sim.New(5)
	ha := stack.NewHost(s, "a")
	ha.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24) // not linked
	ta := New(ha)
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 80, 0, 5*time.Second)
	})
	s.Run(0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestAbortSendsRST(t *testing.T) {
	s := sim.New(6)
	_, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, _ := tb.Listen(80)
	var readErr error
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 5*time.Second)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		_, readErr = c.ReadAppend(p, nil, 1024, 30*time.Second)
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 80, 0, 5*time.Second)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		p.Sleep(time.Second)
		c.Abort()
	})
	s.Run(0)
	if !errors.Is(readErr, ErrReset) {
		t.Fatalf("read err = %v, want ErrReset", readErr)
	}
}

func TestOutOfWindowRSTIgnored(t *testing.T) {
	s := sim.New(7)
	ha, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, _ := tb.Listen(80)
	var conn *Conn
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 5*time.Second)
		if err != nil {
			return
		}
		c.ReadAppend(p, nil, 1024, 20*time.Second)
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 80, 0, 5*time.Second)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		conn = c
		p.Sleep(time.Second)
		// Inject a forged RST with an out-of-window sequence number (what
		// the paper's ls2 generates from ICMP errors).
		bogus := &netpkt.TCP{
			SrcPort: 80, DstPort: c.key.lport,
			Seq: c.rcvNxt + 100000, Flags: netpkt.TCPRst,
		}
		src := netpkt.Addr4(10, 0, 0, 2)
		dst := netpkt.Addr4(10, 0, 0, 1)
		ha.Send(&netpkt.IPv4{Protocol: netpkt.ProtoTCP, Src: src, Dst: dst,
			Payload: bogus.Marshal(src, dst)})
		_ = ha
		p.Sleep(time.Second)
		if c.state != StateEstablished {
			t.Errorf("state = %v after out-of-window RST, want Established", c.state)
		}
		c.Abort()
	})
	s.Run(0)
	if conn == nil {
		t.Fatal("no connection")
	}
}

func TestManyParallelConnections(t *testing.T) {
	s := sim.New(8)
	_, _, ta, tb := pair(s, netem.LinkConfig{QueueBytes: 1 << 20})
	lis, _ := tb.Listen(7000)
	const n = 100
	accepted := 0
	s.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c, err := lis.Accept(p, 30*time.Second)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			accepted++
			go func() {}() // no-op; keep conn open
			_ = c
		}
	})
	okCount := 0
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			_, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 7000, 0, 10*time.Second)
			if err == nil {
				okCount++
			}
		}
	})
	s.Run(0)
	if okCount != n || accepted != n {
		t.Fatalf("ok=%d accepted=%d, want %d", okCount, accepted, n)
	}
	if len(ta.conns) != n {
		t.Fatalf("client conns = %d", len(ta.conns))
	}
}

func TestEchoBothDirections(t *testing.T) {
	s := sim.New(9)
	_, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, _ := tb.Listen(7)
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 5*time.Second)
		if err != nil {
			return
		}
		for {
			data, err := c.ReadAppend(p, nil, 4096, 10*time.Second)
			if err != nil {
				return
			}
			if err := c.Write(p, data); err != nil {
				return
			}
		}
	})
	var replies int
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 7, 0, 5*time.Second)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			msg := []byte("ping-pong-message")
			if err := c.Write(p, msg); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			got, err := c.ReadAppend(p, nil, 4096, 5*time.Second)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("reply %d mismatch", i)
				return
			}
			replies++
			p.Sleep(50 * time.Millisecond)
		}
		c.Abort()
	})
	s.Run(0)
	if replies != 20 {
		t.Fatalf("replies = %d", replies)
	}
}

func TestIdleConnectionSurvives(t *testing.T) {
	s := sim.New(10)
	_, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, _ := tb.Listen(80)
	var final State
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 5*time.Second)
		if err != nil {
			return
		}
		// Wait 25 simulated hours, then ping the client.
		p.Sleep(25 * time.Hour)
		if err := c.Write(p, []byte("still-there")); err != nil {
			t.Errorf("write after idle: %v", err)
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 80, 0, 5*time.Second)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		data, err := c.ReadAppend(p, nil, 1024, 26*time.Hour)
		if err != nil || string(data) != "still-there" {
			t.Errorf("read after idle: %q %v", data, err)
		}
		final = c.state
	})
	s.Run(0)
	if final != StateEstablished {
		t.Fatalf("state after idle = %v", final)
	}
}

func TestSeqCompare(t *testing.T) {
	if !seqLT(0xfffffff0, 5) {
		t.Fatal("wraparound compare broken")
	}
	if seqLT(5, 0xfffffff0) {
		t.Fatal("wraparound compare broken (reverse)")
	}
	if !seqLEQ(7, 7) {
		t.Fatal("seqLEQ equal broken")
	}
}

func TestStateString(t *testing.T) {
	if StateEstablished.String() != "Established" || StateTimeWait.String() != "TimeWait" {
		t.Fatal("state names wrong")
	}
}

func TestSimultaneousClose(t *testing.T) {
	s := sim.New(11)
	_, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, _ := tb.Listen(80)
	var cliErr, srvErr error
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 5*time.Second)
		if err != nil {
			srvErr = err
			return
		}
		p.Sleep(time.Second)
		c.Close()
		_, srvErr = c.ReadAppend(p, nil, 16, 10*time.Second) // expect EOF
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 80, 0, 5*time.Second)
		if err != nil {
			cliErr = err
			return
		}
		p.Sleep(time.Second) // both sides close at the same instant
		c.Close()
		_, cliErr = c.ReadAppend(p, nil, 16, 10*time.Second)
	})
	s.Run(0)
	if cliErr != io.EOF || srvErr != io.EOF {
		t.Fatalf("cliErr=%v srvErr=%v, want EOF on both", cliErr, srvErr)
	}
}

func TestHalfCloseDeliversRemainingData(t *testing.T) {
	s := sim.New(12)
	_, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, _ := tb.Listen(80)
	var got []byte
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 5*time.Second)
		if err != nil {
			return
		}
		// Server closes its direction immediately but keeps reading.
		c.Close()
		for {
			data, err := c.ReadAppend(p, nil, 4096, 10*time.Second)
			if err != nil {
				return
			}
			got = append(got, data...)
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 80, 0, 5*time.Second)
		if err != nil {
			return
		}
		p.Sleep(time.Second)
		c.Write(p, []byte("after-peer-fin"))
		c.Close()
	})
	s.Run(0)
	if string(got) != "after-peer-fin" {
		t.Fatalf("got %q", got)
	}
}

func TestListenerCloseRefusesNew(t *testing.T) {
	s := sim.New(13)
	_, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, _ := tb.Listen(80)
	lis.Close()
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 80, 0, 5*time.Second)
	})
	s.Run(0)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}
