package udp

import (
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// dialCycle is the per-binding cycle of the bindrate probe without the
// NAT: open a connected socket, send one datagram, close the socket,
// and run the simulator until the server holds the datagram, which is
// then read.
type dialCycle struct {
	s   *sim.Sim
	cli *Stack
	srv *Conn
}

func newDialCycle(tb testing.TB) *dialCycle {
	s := sim.New(1)
	_, _, ua, ub := pair(s)
	srv, err := ub.Bind(netpkt.Addr4(10, 0, 0, 2), 7000)
	if err != nil {
		tb.Fatal(err)
	}
	d := &dialCycle{s: s, cli: ua, srv: srv}
	d.run(tb) // resolves ARP and warms the pools
	return d
}

var bindRatePayload = []byte("bind-rate")

func (d *dialCycle) run(tb testing.TB) {
	c, err := d.cli.Dial(netpkt.Addr4(10, 0, 0, 2), 7000)
	if err != nil {
		tb.Fatal(err)
	}
	c.SendTo(netpkt.Addr4(10, 0, 0, 2), 7000, bindRatePayload)
	c.Close()
	d.s.Run(0)
	if _, ok := d.srv.TryRecv(); !ok {
		tb.Fatal("datagram not delivered")
	}
}

// TestAllocsDialSendClose pins the allocations of one Dial → SendTo →
// Close → deliver cycle at one: the Conn, which embeds its receive
// channel and backs its port's table entry. The sent and received
// packet records, the packet buffers and the frames all come back from
// the pools, the payload copy lands in the server stack's chunk
// storage (one chunk per many datagrams), and no ICMP channel is made
// for a socket that never sees ICMP. Under the race detector the pool
// misses add about one allocation per cycle (a mean near 2.0, which
// AllocsPerRun rounds down to 1 or 2), so there the bound is 2.
func TestAllocsDialSendClose(t *testing.T) {
	d := newDialCycle(t)
	most := 1.0
	if raceEnabled {
		most = 2
	}
	if n := testing.AllocsPerRun(200, func() { d.run(t) }); n < 1 || n > most {
		t.Fatalf("Dial/SendTo/Close/deliver allocates %.1f objects per cycle, want 1 to %.0f", n, most)
	}
}

func BenchmarkDialSendClose(b *testing.B) {
	d := newDialCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.run(b)
	}
}
