package netem

import (
	"slices"
	"testing"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// refPipe is the two-event link direction that pipe replaced, kept as
// the reference FuzzLinkSchedule checks pipe against. A frame that
// arrives while another serializes waits in queue; txDone fires when a
// serialization ends, moves the frame to propq and schedules its
// delivery after the propagation delay.
type refPipe struct {
	s       *sim.Sim
	cfg     LinkConfig
	dst     *Iface
	queue   sim.FIFO[*netpkt.Frame] // awaiting serialization
	queued  int                     // bytes in queue
	busy    bool
	txFrame *netpkt.Frame           // currently serializing
	propq   sim.FIFO[*netpkt.Frame] // serialized, propagating

	// txEnds records the instant of every serialization end: the
	// boundaries where the two models may break a tie differently.
	txEnds []sim.Time

	txDoneFn  func()
	deliverFn func()
}

// connectRef wires one direction, a to b, through a refPipe.
func connectRef(s *sim.Sim, a, b *Iface, cfg LinkConfig) *refPipe {
	p := &refPipe{s: s, cfg: cfg.withDefaults(), dst: b}
	p.txDoneFn = p.txDone
	p.deliverFn = func() { p.dst.deliver(p.propq.Pop()) }
	a.send = p.send
	return p
}

func (p *refPipe) send(f *netpkt.Frame) {
	if p.busy {
		if p.queued+f.Len() > p.cfg.QueueBytes {
			pool := p.s.Pool()
			pool.PutBuf(f.Payload)
			pool.PutFrame(f)
			return
		}
		p.queue.Push(f)
		p.queued += f.Len()
		return
	}
	p.transmit(f)
}

func (p *refPipe) transmit(f *netpkt.Frame) {
	p.busy = true
	p.txFrame = f
	txTime := time.Duration(float64(f.Len()*8) / p.cfg.Rate * float64(time.Second))
	if txTime <= 0 {
		txTime = time.Nanosecond
	}
	p.s.After(txTime, p.txDoneFn)
}

func (p *refPipe) txDone() {
	p.txEnds = append(p.txEnds, p.s.Now())
	f := p.txFrame
	p.txFrame = nil
	p.propq.Push(f)
	p.s.After(p.cfg.Delay, p.deliverFn)
	if p.queue.Len() > 0 {
		next := p.queue.Pop()
		p.queued -= next.Len()
		p.transmit(next)
		return
	}
	p.busy = false
}

// offer is one frame a schedule sends: its payload size and the
// instant it is sent.
type offer struct {
	at   sim.Time
	size int
}

// arrival is one delivered frame: its index in the schedule and the
// instant it arrived.
type arrival struct {
	frame int
	at    sim.Time
}

// taggedFrame returns a frame carrying its schedule index in its
// source MAC, which survives delivery; a dropped frame is recycled.
func taggedFrame(i, size int) *netpkt.Frame {
	return &netpkt.Frame{
		Src:     netpkt.MAC{2, 0, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)},
		Payload: make([]byte, size),
	}
}

func frameTag(f *netpkt.Frame) int {
	return int(f.Src[2])<<24 | int(f.Src[3])<<16 | int(f.Src[4])<<8 | int(f.Src[5])
}

// runSchedule sends the offers over a link direction that wire builds
// from a to b, and returns the deliveries in the order they happened.
// Every send is scheduled before the run starts, so a send ranks ahead
// of any link event due at the same instant.
func runSchedule(offers []offer, wire func(s *sim.Sim, a, b *Iface)) []arrival {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	var got []arrival
	b.Recv = func(f *netpkt.Frame) { got = append(got, arrival{frameTag(f), s.Now()}) }
	wire(s, a, b)
	for i, o := range offers {
		s.At(o.at, func() { a.Send(taggedFrame(i, o.size)) })
	}
	s.Run(0)
	return got
}

// linkRates are the line rates FuzzLinkSchedule draws from: round ones,
// whose serialization times fall on round instants, and odd ones.
var linkRates = []float64{1e6, 10e6, 100e6, 1e9, 7.3e6, 33.3e6}

// FuzzLinkSchedule runs random schedules of frame sizes and send
// instants, at random rates, delays and queue bounds, through the
// one-event pipe and through the two-event reference. Wherever no send
// lands exactly on a serialization boundary, the two must deliver the
// same frames, at the same instants, in the same order, so they also
// drop the same ones. A send on a boundary is where the two tie rules
// in DESIGN.md §9 apply; TestLinkTieRules pins those.
func FuzzLinkSchedule(f *testing.F) {
	f.Add([]byte{4, 10, 8, 3, 0, 0x03, 0xd6, 0, 0x01, 0x00, 40, 0x05, 0xdc, 1, 0x00, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := LinkConfig{
			Rate:       linkRates[int(data[0])%len(linkRates)],
			Delay:      time.Duration(data[1]) * 700 * time.Nanosecond,
			QueueBytes: int(data[2]) * 97,
		}
		unit := time.Duration(1+int(data[3])) * 37 * time.Nanosecond
		var offers []offer
		var at sim.Time
		for rest := data[4:]; len(rest) >= 3 && len(offers) < 64; rest = rest[3:] {
			at += time.Duration(rest[0]) * unit
			offers = append(offers, offer{at, (int(rest[1])<<8 | int(rest[2])) % 1600})
		}
		var ref *refPipe
		want := runSchedule(offers, func(s *sim.Sim, a, b *Iface) { ref = connectRef(s, a, b, cfg) })
		for _, o := range offers {
			if _, hit := slices.BinarySearch(ref.txEnds, o.at); hit {
				t.Skipf("a send at %v lands on a serialization boundary", o.at)
			}
		}
		got := runSchedule(offers, func(s *sim.Sim, a, b *Iface) { Connect(s, a, b, cfg) })
		if !slices.Equal(got, want) {
			t.Fatalf("%d offers at %+v:\n got %v\nwant %v", len(offers), cfg.withDefaults(), got, want)
		}
	})
}

// TestLinkTieRules pins the two tie-breaks where the one-event pipe
// departs from the two-event reference (DESIGN.md §9). Delivery
// instants agree in both cases; only same-instant order and one drop
// decision differ.
func TestLinkTieRules(t *testing.T) {
	// A delivery ranks by its frame's admission. Link x admits a
	// 1000-byte frame at 0 (80 µs to serialize, 20 µs to propagate);
	// link y admits a 125-byte frame at 5 µs (5 µs, 90 µs). Both
	// arrive at 100 µs. The reference ranked them by serialization
	// end, so y's frame came first.
	order := func(wire func(s *sim.Sim, a, b *Iface, cfg LinkConfig)) []string {
		s := sim.New(1)
		var got []string
		for _, l := range []struct {
			name  string
			cfg   LinkConfig
			at    sim.Time
			bytes int
		}{
			{"x", LinkConfig{Rate: 100e6, Delay: 20 * time.Microsecond}, 0, 982},
			{"y", LinkConfig{Rate: 200e6, Delay: 90 * time.Microsecond}, 5 * time.Microsecond, 107},
		} {
			a, b := mkIface(l.name+"a"), mkIface(l.name+"b")
			b.Recv = func(*netpkt.Frame) { got = append(got, l.name+"@"+s.Now().String()) }
			wire(s, a, b, l.cfg)
			s.At(l.at, func() { a.Send(&netpkt.Frame{Payload: make([]byte, l.bytes)}) })
		}
		s.Run(0)
		return got
	}
	got := order(func(s *sim.Sim, a, b *Iface, cfg LinkConfig) { Connect(s, a, b, cfg) })
	ref := order(func(s *sim.Sim, a, b *Iface, cfg LinkConfig) { connectRef(s, a, b, cfg) })
	if want := []string{"x@100µs", "y@100µs"}; !slices.Equal(got, want) {
		t.Errorf("same-instant deliveries %v, want %v (by admission)", got, want)
	}
	if want := []string{"y@100µs", "x@100µs"}; !slices.Equal(ref, want) {
		t.Errorf("reference delivered %v, want %v (by serialization end)", ref, want)
	}

	// A frame whose serialization starts now no longer counts against
	// the queue. At 1 Mb/s a 1000-byte frame serializes in 8 ms, and
	// the queue holds 1000 bytes. Frames 0 and 1 are sent at 0; frame
	// 2 at 8 ms, the instant frame 1 starts. The reference still
	// counted frame 1 as queued and dropped frame 2.
	cfg := LinkConfig{Rate: 1e6, QueueBytes: 1000}
	offers := []offer{{0, 982}, {0, 982}, {8 * time.Millisecond, 982}}
	d := cfg.withDefaults().Delay
	if got, want := runSchedule(offers, func(s *sim.Sim, a, b *Iface) { Connect(s, a, b, cfg) }),
		[]arrival{{0, 8*time.Millisecond + d}, {1, 16*time.Millisecond + d}, {2, 24*time.Millisecond + d}}; !slices.Equal(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if got, want := runSchedule(offers, func(s *sim.Sim, a, b *Iface) { connectRef(s, a, b, cfg) }),
		[]arrival{{0, 8*time.Millisecond + d}, {1, 16*time.Millisecond + d}}; !slices.Equal(got, want) {
		t.Errorf("reference delivered %v, want %v", got, want)
	}
}
