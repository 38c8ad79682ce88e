package tcp

import (
	"testing"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// bulkPath is a steady one-way bulk transfer over a 100 Mb/s link: per
// round the client writes n bytes and the server reads them into one
// buffer it owns. The link queue holds more than a receive window, so
// no segment is lost and the path is the in-order one (loss recovery
// copies out-of-order segments aside). Neither side sets a timeout, so
// once a round's bytes are acknowledged no event is left and Run
// returns.
type bulkPath struct {
	s     *sim.Sim
	round *sim.Chan[int] // bytes for the client to send next
	rcvd  int
}

func newBulkPath(tb testing.TB) *bulkPath {
	s := sim.New(1)
	_, _, ta, tb2 := pair(s, netem.LinkConfig{Rate: 100e6, QueueBytes: 4 * recvWndMax})
	lis, err := tb2.Listen(5001)
	if err != nil {
		tb.Fatal(err)
	}
	b := &bulkPath{s: s, round: sim.NewChan[int](s)}
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 1<<16)
		for {
			n, err := c.Read(p, buf, 0)
			if err != nil {
				return
			}
			b.rcvd += n
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 5001, 0, 0)
		if err != nil {
			return
		}
		chunk := make([]byte, 1<<14)
		for {
			n, ok := b.round.Recv(p, 0)
			if !ok {
				return
			}
			for ; n > 0; n -= len(chunk) {
				if c.Write(p, chunk) != nil {
					return
				}
			}
		}
	})
	tb.Cleanup(s.Shutdown)
	// Warm-up: the connection's stores reach their steady size and the
	// packet pools fill.
	for range 4 {
		b.run(tb, bulkRound)
	}
	return b
}

// bulkRound is the bytes moved per round, a multiple of the client's
// write size. It is four times the send store's limit, so within a
// round the store's tail runs out and its live bytes slide down.
const bulkRound = 1 << 20

func (b *bulkPath) run(tb testing.TB, n int) {
	want := b.rcvd + n
	b.round.Send(n)
	b.s.Run(0)
	if b.rcvd != want {
		tb.Fatalf("received %d bytes, want %d", b.rcvd, want)
	}
}

// TestAllocsTCPBulk pins a steady bulk transfer at zero allocations per
// MiB: segments are marshaled from the send store into pooled frame
// buffers with pooled packet records, received frames and records go
// back to the pools (the handler keeps no view), payloads land in the
// fixed receive store, and Read copies into the caller's buffer.
func TestAllocsTCPBulk(t *testing.T) {
	b := newBulkPath(t)
	if n := testing.AllocsPerRun(20, func() { b.run(t, bulkRound) }); n != 0 {
		t.Fatalf("bulk transfer allocates %.1f objects per %d bytes, want 0", n, bulkRound)
	}
}

func BenchmarkTCPBulk(b *testing.B) {
	p := newBulkPath(b)
	b.SetBytes(bulkRound)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.run(b, bulkRound)
	}
}
