package gateway

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// TestForwardQueueBacklogKeepsStorage keeps a slow device's upstream
// forwarding queue backlogged for thousands of packets, so it never
// drains. Its backing array must stay bounded by its live length
// rather than grow with every packet served, and it must still serve
// packets in arrival order.
func TestForwardQueueBacklogKeepsStorage(t *testing.T) {
	prof, _ := ByTag("dl10") // 6 Mb/s forwarding plane: ~1.4 ms per packet below
	r := buildRig(t, prof)
	srv, err := r.sUDP.Bind(netpkt.Addr4(10, 0, 1, 1), 9000)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 4000
	q := r.dev.up
	longest, got, last := 0, 0, -1
	drain := func() {
		for {
			d, ok := srv.TryRecv()
			if !ok {
				return
			}
			seq := int(binary.BigEndian.Uint32(d.Data))
			if seq <= last {
				t.Fatalf("packet %d forwarded after packet %d", seq, last)
			}
			last = seq
			got++
		}
	}
	r.s.Spawn("blast", func(p *sim.Proc) {
		c, err := r.cUDP.Dial(netpkt.Addr4(10, 0, 1, 1), 9000)
		if err != nil {
			t.Error(err)
			return
		}
		payload := make([]byte, 1000)
		for i := 0; i < packets; i++ {
			binary.BigEndian.PutUint32(payload, uint32(i))
			c.Send(payload)
			longest = max(longest, q.queue.Len())
			p.Sleep(time.Millisecond)
			drain()
		}
	})
	r.s.Run(0)
	drain()
	// 8 Mb/s offered to a 6 Mb/s forwarding plane: the links never
	// queue, so every missing packet was dropped by the device's queue.
	if got == packets || got < packets/2 {
		t.Fatalf("no standing backlog: %d of %d packets forwarded", got, packets)
	}
	if c := reflect.ValueOf(&q.queue).Elem().FieldByName("items").Cap(); c > 4*longest+8 {
		t.Errorf("forwarding queue holds at most %d packets but its array grew to %d", longest, c)
	}
}

// BenchmarkForwardBacklog forwards one packet per op through a slow
// device whose upstream queue holds a standing backlog: the per-packet
// cost of the forwarding engine, NAT and links in steady state.
func BenchmarkForwardBacklog(b *testing.B) {
	prof, _ := ByTag("dl10")
	r := buildRig(b, prof)
	srv, err := r.sUDP.Bind(netpkt.Addr4(10, 0, 1, 1), 9000)
	if err != nil {
		b.Fatal(err)
	}
	c, err := r.cUDP.Dial(netpkt.Addr4(10, 0, 1, 1), 9000)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1000)
	for i := 0; i < 20; i++ {
		c.Send(payload)
	}
	// One packet in per service time keeps the backlog where it is.
	svc := time.Duration(float64((len(payload)+28)*8) / 6e6 * float64(time.Second))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(payload)
		r.s.Run(r.s.Now() + svc)
		srv.Drain()
	}
	b.StopTimer()
	if r.dev.up.queue.Len() == 0 {
		b.Fatal("the backlog drained")
	}
}
