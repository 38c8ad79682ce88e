package netem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

func mkIface(name string) *Iface {
	return &Iface{Name: name, MAC: netpkt.MAC{2, 0, 0, 0, 0, byte(len(name))}}
}

// observed returns a simulator writing into a fresh registry.
func observed(seed int64) (*sim.Sim, *obs.Registry) {
	s, reg := sim.New(seed), obs.NewRegistry()
	s.SetObs(reg)
	return s, reg
}

// faultDrops reads the frames injected faults shed from the registry.
func faultDrops(reg *obs.Registry) int {
	return int(reg.Snapshot().Counters[obs.CFaultFramesDropped])
}

// fifoCap returns the capacity of a sim.FIFO's backing array, which
// the sim package keeps unexported.
func fifoCap(q *sim.FIFO[*netpkt.Frame]) int {
	return reflect.ValueOf(q).Elem().FieldByName("items").Cap()
}

// fdbSize counts the switch's learned addresses over all its VLANs.
func fdbSize(sw *Switch) int {
	n := 0
	for _, g := range sw.vlans {
		n += len(g.fdb)
	}
	return n
}

func TestLinkDelivery(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	var got *netpkt.Frame
	var at sim.Time
	b.Recv = func(f *netpkt.Frame) { got, at = f, s.Now() }
	Connect(s, a, b, LinkConfig{Rate: 100e6, Delay: 10 * time.Microsecond})
	f := &netpkt.Frame{Src: a.MAC, Dst: b.MAC, Type: netpkt.EtherTypeIPv4, Payload: make([]byte, 982)} // frame len 1000
	s.After(0, func() { a.Send(f) })
	s.Run(0)
	if got == nil {
		t.Fatal("frame not delivered")
	}
	// 1000 bytes at 100 Mb/s = 80 µs serialization + 10 µs propagation.
	want := 90 * time.Microsecond
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestLinkQueueingSerializes(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	var times []sim.Time
	b.Recv = func(f *netpkt.Frame) { times = append(times, s.Now()) }
	Connect(s, a, b, LinkConfig{Rate: 100e6, Delay: 10 * time.Microsecond})
	s.After(0, func() {
		for i := 0; i < 3; i++ {
			a.Send(&netpkt.Frame{Payload: make([]byte, 982)})
		}
	})
	s.Run(0)
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	// Deliveries spaced by serialization time (80 µs), not propagation.
	if d := times[1] - times[0]; d != 80*time.Microsecond {
		t.Fatalf("spacing %v, want 80µs", d)
	}
}

func TestLinkDropTail(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	n := 0
	b.Recv = func(f *netpkt.Frame) { n++ }
	l := Connect(s, a, b, LinkConfig{Rate: 1e6, QueueBytes: 2000})
	s.After(0, func() {
		for i := 0; i < 10; i++ {
			a.Send(&netpkt.Frame{Payload: make([]byte, 982)}) // 1000 B frames
		}
	})
	s.Run(0)
	// 1 transmitting + 2 queued; the other 7 are dropped, and the
	// drained queue leaves nothing in flight.
	if n != 3 {
		t.Fatalf("delivered %d, want 3", n)
	}
	if l.ab.waiting != 0 || l.ab.queued != 0 || l.ab.propq.Len() != 0 {
		t.Fatal("frames still queued after the run drained")
	}
}

func TestLinkFullDuplex(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	var gotA, gotB int
	a.Recv = func(f *netpkt.Frame) { gotA++ }
	b.Recv = func(f *netpkt.Frame) { gotB++ }
	Connect(s, a, b, LinkConfig{})
	s.After(0, func() {
		a.Send(&netpkt.Frame{})
		b.Send(&netpkt.Frame{})
	})
	s.Run(0)
	if gotA != 1 || gotB != 1 {
		t.Fatalf("gotA=%d gotB=%d", gotA, gotB)
	}
}

func TestDisconnect(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	got := 0
	b.Recv = func(f *netpkt.Frame) { got++ }
	Connect(s, a, b, LinkConfig{})
	a.send = nil // pull the cable
	s.After(0, func() { a.Send(&netpkt.Frame{}) })
	s.Run(0)
	if got != 0 {
		t.Fatal("frame delivered over disconnected link")
	}
}

func TestTapSeesTraffic(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	b.Recv = func(f *netpkt.Frame) {}
	var tx, rx int
	a.Tap = func(dir string, f *netpkt.Frame) {
		if dir == "tx" {
			tx++
		}
	}
	b.Tap = func(dir string, f *netpkt.Frame) {
		if dir == "rx" {
			rx++
		}
	}
	Connect(s, a, b, LinkConfig{})
	s.After(0, func() { a.Send(&netpkt.Frame{}) })
	s.Run(0)
	if tx != 1 || rx != 1 {
		t.Fatalf("tx=%d rx=%d", tx, rx)
	}
}

// switch test helpers: host NICs attached to switch ports.
func plug(s *sim.Sim, sw *Switch, vlan uint16, mac byte) (*Iface, *[]netpkt.MAC) {
	h := &Iface{Name: "h", MAC: netpkt.MAC{2, 0, 0, 0, 0, mac}}
	var got []netpkt.MAC
	rec := &got
	h.Recv = func(f *netpkt.Frame) { *rec = append(*rec, f.Src) }
	Connect(s, h, sw.AddPort(vlan), LinkConfig{})
	return h, rec
}

func TestSwitchFloodsThenLearns(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw0")
	h1, got1 := plug(s, sw, 1, 1)
	h2, got2 := plug(s, sw, 1, 2)
	_, got3 := plug(s, sw, 1, 3)

	s.After(0, func() {
		// Unknown destination: flood to both others.
		h1.Send(&netpkt.Frame{Src: h1.MAC, Dst: h2.MAC})
	})
	s.After(time.Millisecond, func() {
		// h2 replies; switch has learned h1's port, so h3 sees nothing.
		h2.Send(&netpkt.Frame{Src: h2.MAC, Dst: h1.MAC})
	})
	s.After(2*time.Millisecond, func() {
		// Now h1->h2 is unicast: h3 must not see it.
		h1.Send(&netpkt.Frame{Src: h1.MAC, Dst: h2.MAC})
	})
	s.Run(0)
	if len(*got2) != 2 {
		t.Fatalf("h2 got %d frames, want 2", len(*got2))
	}
	if len(*got1) != 1 {
		t.Fatalf("h1 got %d frames, want 1", len(*got1))
	}
	if len(*got3) != 1 { // only the initial flood
		t.Fatalf("h3 got %d frames, want 1", len(*got3))
	}
	if n := fdbSize(sw); n != 2 {
		t.Fatalf("FDB size %d, want 2", n)
	}
}

func TestSwitchVLANIsolation(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw0")
	h1, _ := plug(s, sw, 1, 1)
	_, got2 := plug(s, sw, 1, 2)
	_, got3 := plug(s, sw, 2, 3) // different VLAN

	s.After(0, func() {
		h1.Send(&netpkt.Frame{Src: h1.MAC, Dst: netpkt.BroadcastMAC})
	})
	s.Run(0)
	if len(*got2) != 1 {
		t.Fatalf("same-VLAN peer got %d", len(*got2))
	}
	if len(*got3) != 0 {
		t.Fatalf("cross-VLAN peer got %d, want 0", len(*got3))
	}
	if sw.nports != 3 {
		t.Fatalf("ports = %d", sw.nports)
	}
}

// TestSwitchCloneOnlyOnFanOut checks the forwarding fast path: a
// learned unicast destination, and a flood reaching a single port,
// must pass the original frame through without copying; only fan-out
// beyond one port clones (content-identical copies on every port).
func TestSwitchCloneOnlyOnFanOut(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw0")
	plugF := func(mac byte) (*Iface, *[]*netpkt.Frame) {
		h := &Iface{Name: "h", MAC: netpkt.MAC{2, 0, 0, 0, 0, mac}}
		var got []*netpkt.Frame
		rec := &got
		h.Recv = func(f *netpkt.Frame) { *rec = append(*rec, f) }
		Connect(s, h, sw.AddPort(1), LinkConfig{})
		return h, rec
	}
	h1, _ := plugF(1)
	h2, got2 := plugF(2)
	_, got3 := plugF(3)

	payload := []byte("fan-out-frame")
	flood := &netpkt.Frame{Src: h1.MAC, Dst: h2.MAC, Type: netpkt.EtherTypeIPv4,
		Payload: append([]byte(nil), payload...)}
	s.After(0, func() { h1.Send(flood) })
	s.Run(0)
	if len(*got2) != 1 || len(*got3) != 1 {
		t.Fatalf("flood delivered %d/%d frames, want 1/1", len(*got2), len(*got3))
	}
	// Fan-out 2: exactly one of the receivers got the original frame,
	// the other a content-identical clone.
	orig := 0
	for _, f := range append(append([]*netpkt.Frame(nil), *got2...), *got3...) {
		if string(f.Payload) != string(payload) {
			t.Fatalf("flood copy corrupted: %q", f.Payload)
		}
		if f == flood {
			orig++
		}
	}
	if orig != 1 {
		t.Fatalf("original frame delivered %d times, want exactly 1", orig)
	}

	// h2 replied nothing, but the switch learned h1 and h2 from the
	// traffic above plus this reply; the subsequent unicast must be the
	// very same frame object end to end (no clone).
	reply := &netpkt.Frame{Src: h2.MAC, Dst: h1.MAC, Type: netpkt.EtherTypeIPv4}
	s.After(0, func() { h2.Send(reply) })
	s.Run(0)
	uni := &netpkt.Frame{Src: h1.MAC, Dst: h2.MAC, Type: netpkt.EtherTypeIPv4,
		Payload: append([]byte(nil), payload...)}
	s.After(0, func() { h1.Send(uni) })
	s.Run(0)
	last := (*got2)[len(*got2)-1]
	if last != uni {
		t.Fatal("learned unicast was cloned; want the original frame passed through")
	}
}

func TestDefaultLinkConfig(t *testing.T) {
	cfg := LinkConfig{}.withDefaults()
	if cfg.Rate != 100e6 || cfg.Delay <= 0 || cfg.QueueBytes <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
}

func TestLinkDownShedsAndRecovers(t *testing.T) {
	s, reg := observed(1)
	a, b := mkIface("a"), mkIface("b")
	n := 0
	b.Recv = func(f *netpkt.Frame) { n++ }
	l := Connect(s, a, b, LinkConfig{})
	s.After(0, func() { a.Send(&netpkt.Frame{}) })
	s.After(time.Millisecond, func() { l.SetDown(true); a.Send(&netpkt.Frame{}) })
	s.After(2*time.Millisecond, func() { l.SetDown(false); a.Send(&netpkt.Frame{}) })
	s.Run(0)
	// Of three frames, one was shed by the fault and none by the queue.
	if n != 2 {
		t.Fatalf("delivered %d, want 2 (one shed while down)", n)
	}
	if d := faultDrops(reg); d != 1 {
		t.Fatalf("fault drops = %d, want 1", d)
	}
}

func TestLinkLossNeedsRand(t *testing.T) {
	s, reg := observed(1)
	a, b := mkIface("a"), mkIface("b")
	n := 0
	b.Recv = func(f *netpkt.Frame) { n++ }
	l := Connect(s, a, b, LinkConfig{})
	l.SetLoss(1.0) // no fault rng installed: the link stays lossless
	s.After(0, func() { a.Send(&netpkt.Frame{}) })
	s.Run(0)
	if d := faultDrops(reg); n != 1 || d != 0 {
		t.Fatalf("delivered %d (drops %d); loss without a fault rng must be a no-op", n, d)
	}
}

func TestLinkLossDropsDeterministically(t *testing.T) {
	run := func() (delivered, dropped int) {
		s, reg := observed(1)
		a, b := mkIface("a"), mkIface("b")
		n := 0
		b.Recv = func(f *netpkt.Frame) { n++ }
		l := Connect(s, a, b, LinkConfig{})
		l.SetFaultRand(rand.New(rand.NewSource(77)))
		l.SetLoss(0.5)
		s.After(0, func() {
			for i := 0; i < 200; i++ {
				a.Send(&netpkt.Frame{})
			}
		})
		s.Run(0)
		return n, faultDrops(reg)
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("loss not deterministic: %d/%d vs %d/%d", d1, x1, d2, x2)
	}
	if d1+x1 != 200 || d1 == 0 || x1 == 0 {
		t.Fatalf("delivered %d dropped %d, want a non-trivial split of 200", d1, x1)
	}
}

func TestLinkCorruptFlipsPayloadByte(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	var got []byte
	b.Recv = func(f *netpkt.Frame) { got = append([]byte(nil), f.Payload...) }
	l := Connect(s, a, b, LinkConfig{})
	l.SetFaultRand(rand.New(rand.NewSource(1)))
	l.SetCorrupt(1.0)
	s.After(0, func() { a.Send(&netpkt.Frame{Payload: []byte{0xaa, 0xbb}}) })
	s.Run(0)
	if got == nil {
		t.Fatal("corrupted frame not delivered")
	}
	if got[0] != 0xaa || got[1] != 0xbb^0xff {
		t.Fatalf("payload %x, want last byte flipped", got)
	}
}

// TestFaultFilterAllocs pins the chaos path's allocator behavior: both
// the pass-through fast path (no faults armed) and the drop path (link
// down, frame recycled to the pools) must not allocate.
func TestFaultFilterAllocs(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	// The receiver recycles like a real stack, so the pools stay primed.
	pool := s.Pool()
	b.Recv = func(f *netpkt.Frame) { pool.PutBuf(f.Payload); pool.PutFrame(f) }
	l := Connect(s, a, b, LinkConfig{})
	send := func() {
		f := pool.GetFrame()
		f.Src, f.Dst = a.MAC, b.MAC
		f.Payload = pool.GetBuf(64)
		a.Send(f)
		s.Run(0)
	}
	send() // warm the pools
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("unfaulted send allocates %.1f objects per run, want 0", n)
	}
	l.SetDown(true)
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("downed-link drop allocates %.1f objects per run, want 0", n)
	}
	l.SetDown(false)
	l.SetFaultRand(rand.New(rand.NewSource(5)))
	l.SetLoss(0.5)
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("lossy send allocates %.1f objects per run, want 0", n)
	}
}

// TestSwitchFloodOrder checks that a flood visits the ingress VLAN's
// member ports in AddPort order, with VLANs interleaved on the switch:
// every member but the last gets a clone, the last gets the original
// frame, other VLANs see nothing, and a VLAN with no other member
// recycles the frame. The learned unicast path must still pass the
// original frame to the one port that owns the destination.
func TestSwitchFloodOrder(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw0")
	type rx struct {
		port int
		f    *netpkt.Frame
	}
	var log []rx
	vlans := []uint16{1, 2, 1, 1}
	hosts := make([]*Iface, len(vlans))
	for i, v := range vlans {
		h := &Iface{Name: "h", MAC: netpkt.MAC{2, 0, 0, 0, 0, byte(i + 1)}}
		h.Recv = func(f *netpkt.Frame) { log = append(log, rx{i, f}) }
		Connect(s, h, sw.AddPort(v), LinkConfig{})
		hosts[i] = h
	}
	flood := func(from int, dst netpkt.MAC) (*netpkt.Frame, []rx) {
		log = nil
		f := &netpkt.Frame{Src: hosts[from].MAC, Dst: dst, Type: netpkt.EtherTypeIPv4,
			Payload: []byte("flood")}
		s.After(0, func() { hosts[from].Send(f) })
		s.Run(0)
		return f, log
	}

	for _, tc := range []struct {
		from int
		want []int // receiving hosts, in delivery order
	}{
		{0, []int{2, 3}},
		{2, []int{0, 3}},
		{3, []int{0, 2}}, // ingress is the VLAN's last member
	} {
		f, got := flood(tc.from, netpkt.BroadcastMAC)
		if len(got) != len(tc.want) {
			t.Fatalf("broadcast from h%d reached %d ports, want %v", tc.from, len(got), tc.want)
		}
		for k, r := range got {
			if r.port != tc.want[k] {
				t.Fatalf("broadcast from h%d: delivery %d went to h%d, want order %v", tc.from, k, r.port, tc.want)
			}
			if string(r.f.Payload) != "flood" {
				t.Fatalf("broadcast from h%d: h%d got payload %q", tc.from, r.port, r.f.Payload)
			}
			if isLast := k == len(got)-1; (r.f == f) != isLast {
				t.Fatalf("broadcast from h%d: h%d got original=%v, want original only on the last member",
					tc.from, r.port, r.f == f)
			}
		}
	}

	// VLAN 2 has one member: the flood has nowhere to go and the frame
	// is recycled (PutFrame zeroes it).
	if f, got := flood(1, netpkt.BroadcastMAC); len(got) != 0 || !f.Src.IsZero() || f.Payload != nil {
		t.Fatalf("lone-member flood delivered %d frames, frame %+v; want none, recycled", len(got), f)
	}

	// All of VLAN 1 is learned now: unicast reaches only its owner, as
	// the original frame.
	if f, got := flood(0, hosts[3].MAC); len(got) != 1 || got[0].port != 3 || got[0].f != f {
		t.Fatalf("learned unicast delivered %+v, want the original frame to h3 only", got)
	}
}

// BenchmarkSwitchFlood times one broadcast through a switch whose ports
// form 2-port VLANs, the testbed's layout. The ports are not linked, so
// only the forwarding decision is measured; its cost should not grow
// with the number of ports.
func BenchmarkSwitchFlood(b *testing.B) {
	for _, n := range []int{8, 512, 8192} {
		b.Run(fmt.Sprintf("ports=%d", n), func(b *testing.B) {
			sw := NewSwitch(sim.New(1), "sw0")
			ports := make([]*Iface, n)
			for i := range ports {
				ports[i] = sw.AddPort(uint16(i / 2))
			}
			f := &netpkt.Frame{Src: netpkt.MAC{2, 0, 0, 0, 0, 1}, Dst: netpkt.BroadcastMAC}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ports[2*i%n].Recv(f)
			}
		})
	}
}

// TestLinkBacklogKeepsStorage keeps a link's transmit queue and its
// propagation delay busy for thousands of frames, so the pipe's one
// FIFO never drains. Its backing array must stay bounded by its live
// length rather than grow with every frame served, and frames must
// arrive in the order sent.
func TestLinkBacklogKeepsStorage(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	// 1000 B frames: 80 µs to serialize, and 50 of them in flight.
	l := Connect(s, a, b, LinkConfig{Rate: 100e6, Delay: 4 * time.Millisecond})
	const frames = 5000
	longestQ, longestP, got := 0, 0, 0
	b.Recv = func(f *netpkt.Frame) {
		if seq := int(binary.BigEndian.Uint32(f.Payload)); seq != got {
			t.Fatalf("frame %d arrived as number %d", seq, got)
		}
		got++
	}
	// Four frames ahead of the link, then one per serialization time.
	sent, burst := 0, 4
	var tick func()
	tick = func() {
		for ; burst > 0 && sent < frames; burst-- {
			f := &netpkt.Frame{Payload: make([]byte, 982)}
			binary.BigEndian.PutUint32(f.Payload, uint32(sent))
			a.Send(f)
			sent++
		}
		if sent == frames {
			return
		}
		burst = 1
		longestQ = max(longestQ, l.ab.waiting)
		longestP = max(longestP, l.ab.propq.Len())
		s.After(80*time.Microsecond, tick)
	}
	s.After(0, tick)
	s.Run(0)
	if got != frames {
		t.Fatalf("delivered %d of %d frames", got, frames)
	}
	if longestQ == 0 || longestP < 40 {
		t.Fatalf("no standing backlog: at most %d queued and %d in flight", longestQ, longestP)
	}
	if c := fifoCap(&l.ab.propq); c > 4*longestP+8 {
		t.Errorf("the pipe holds at most %d frames but its array grew to %d", longestP, c)
	}
}

// hopRig builds one link direction at the testbed's link config whose
// receiver recycles every frame, as a host stack does. Each call of
// offer sends burst 1000-byte frames at one instant and runs the
// simulator until all of them are delivered; every frame of a burst
// but the first waits for the transmitter.
func hopRig(burst int) (offer func(), reg *obs.Registry) {
	s, reg := observed(1)
	a, b := mkIface("a"), mkIface("b")
	pool := s.Pool()
	b.Recv = func(f *netpkt.Frame) { pool.PutBuf(f.Payload); pool.PutFrame(f) }
	Connect(s, a, b, DefaultLinkConfig())
	offer = func() {
		for range burst {
			f := pool.GetFrame()
			f.Src, f.Dst = a.MAC, b.MAC
			f.Payload = pool.GetBuf(982)
			a.Send(f)
		}
		s.Run(0)
	}
	offer() // warm the pools and the pipe's FIFO
	return offer, reg
}

// hopBursts are the link hop's two regimes: a frame onto an idle line,
// and bursts of 32 frames (32 KB, half the queue) onto a busy one.
var hopBursts = []struct {
	name  string
	burst int
}{{"idle", 1}, {"backlogged", 32}}

// TestLinkHopAllocs pins a link hop at 0 allocations per frame in
// steady state, on an idle line and through a backlog.
func TestLinkHopAllocs(t *testing.T) {
	for _, h := range hopBursts {
		offer, _ := hopRig(h.burst)
		if n := testing.AllocsPerRun(100, offer); n != 0 {
			t.Errorf("%s: a burst of %d frames allocates %.1f objects, want 0", h.name, h.burst, n)
		}
	}
}

// BenchmarkLinkHop times frames through one link direction, idle and
// backlogged, and reports the cost and the simulator events of one
// frame's hop from send to delivery.
func BenchmarkLinkHop(b *testing.B) {
	for _, h := range hopBursts {
		b.Run(h.name, func(b *testing.B) {
			offer, reg := hopRig(h.burst)
			fired := func() uint64 { return reg.Snapshot().Counters[obs.CSimEventsFired] }
			before := fired()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				offer()
			}
			b.StopTimer()
			frames := float64(b.N * h.burst)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
			b.ReportMetric(float64(fired()-before)/frames, "sim_events_fired/frame")
		})
	}
}
