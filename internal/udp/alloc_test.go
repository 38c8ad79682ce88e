package udp

import (
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// dialCycle sends one datagram that needs no reply from a fresh
// ephemeral port, without a NAT: by opening a connected socket,
// sending and closing it (as the UDP timeout probes do), or with
// SendOnce when once is set (as the bindrate probe does). It then runs
// the simulator until the server holds the datagram, which is read.
type dialCycle struct {
	s    *sim.Sim
	cli  *Stack
	srv  *Conn
	once bool
}

func newDialCycle(tb testing.TB, once bool) *dialCycle {
	s := sim.New(1)
	_, _, ua, ub := pair(s)
	srv, err := ub.Bind(netpkt.Addr4(10, 0, 0, 2), 7000)
	if err != nil {
		tb.Fatal(err)
	}
	d := &dialCycle{s: s, cli: ua, srv: srv, once: once}
	d.run(tb) // resolves ARP and warms the pools
	return d
}

var bindRatePayload = []byte("bind-rate")

func (d *dialCycle) run(tb testing.TB) {
	dst := netpkt.Addr4(10, 0, 0, 2)
	if d.once {
		if err := d.cli.SendOnce(dst, 7000, bindRatePayload); err != nil {
			tb.Fatal(err)
		}
	} else {
		c, err := d.cli.Dial(dst, 7000)
		if err != nil {
			tb.Fatal(err)
		}
		c.SendTo(dst, 7000, bindRatePayload)
		c.Close()
	}
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
// for a socket that never sees ICMP.
func TestAllocsDialSendClose(t *testing.T) {
	d := newDialCycle(t, false)
	if n := testing.AllocsPerRun(200, func() { d.run(t) }); n != 1 {
		t.Fatalf("Dial/SendTo/Close/deliver allocates %.1f objects per cycle, want 1", n)
	}
}

// TestAllocsSendOnce pins the SendOnce → deliver cycle at zero
// allocations: it is the Dial/SendTo/Close cycle without the Conn.
func TestAllocsSendOnce(t *testing.T) {
	d := newDialCycle(t, true)
	if n := testing.AllocsPerRun(200, func() { d.run(t) }); n != 0 {
		t.Fatalf("SendOnce/deliver allocates %.1f objects per cycle, want 0", n)
	}
}

func BenchmarkDialSendClose(b *testing.B) { benchmarkCycle(b, false) }

func BenchmarkSendOnce(b *testing.B) { benchmarkCycle(b, true) }

func benchmarkCycle(b *testing.B, once bool) {
	d := newDialCycle(b, once)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.run(b)
	}
}
