package obs

import (
	"testing"
	"time"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Inc(CSimEventsFired)
	r.Add(CSimEventsFired, 4)
	r.GaugeInc(GNATBindings)
	r.GaugeInc(GNATBindings)
	r.GaugeDec(GNATBindings)
	r.GaugeSet(GSimSlabSlots, 17)
	r.GaugeSet(GSimSlabSlots, 9)
	s := r.Snapshot()
	if got := s.Counters[CSimEventsFired]; got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if g := s.Gauges[GNATBindings]; g.Value != 1 || g.Peak != 2 {
		t.Errorf("bindings gauge = %+v, want value 1 peak 2", g)
	}
	if g := s.Gauges[GSimSlabSlots]; g.Value != 9 || g.Peak != 17 {
		t.Errorf("slab gauge = %+v, want value 9 peak 17", g)
	}
}

func TestVecClampsOutOfRange(t *testing.T) {
	r := NewRegistry()
	r.VecInc(VecNATDrops, 3)
	r.VecInc(VecNATDrops, -1)
	r.VecInc(VecNATDrops, VecWidth+5)
	s := r.Snapshot()
	if s.Vecs[VecNATDrops][3] != 1 {
		t.Errorf("slot 3 = %d, want 1", s.Vecs[VecNATDrops][3])
	}
	if s.Vecs[VecNATDrops][VecWidth-1] != 2 {
		t.Errorf("clamp slot = %d, want 2", s.Vecs[VecNATDrops][VecWidth-1])
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.Observe(HNATBindingLifetime, 500*time.Microsecond) // bucket 0
	r.Observe(HNATBindingLifetime, time.Millisecond)     // bucket 0 (<=)
	r.Observe(HNATBindingLifetime, 2*time.Millisecond)   // bucket 1
	r.Observe(HNATBindingLifetime, 24*time.Hour)         // +Inf bucket
	s := r.Snapshot()
	h := s.Histos[HNATBindingLifetime]
	if h.Count != 4 {
		t.Fatalf("count = %d, want 4", h.Count)
	}
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[NumBuckets-1] != 1 {
		t.Errorf("buckets = %v", h.Buckets)
	}
	want := int64(500*time.Microsecond + time.Millisecond + 2*time.Millisecond + 24*time.Hour)
	if h.SumNS != want {
		t.Errorf("sum = %d, want %d", h.SumNS, want)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Inc(CSimEventsFired)
	r.Add(CSimEventsFired, 3)
	r.VecInc(VecNATDrops, 1)
	r.GaugeInc(GNATBindings)
	r.GaugeDec(GNATBindings)
	r.GaugeSet(GSimSlabSlots, 1)
	r.Observe(HNATBindingLifetime, time.Second)
	r.Trace(TraceDrop, 0, 0)
	s := r.Snapshot()
	if s == nil || s.Counters[CSimEventsFired] != 0 {
		t.Errorf("nil registry snapshot = %+v", s)
	}
}

func TestTraceSamplingAndRing(t *testing.T) {
	r := NewRegistry()
	// Stride-1 kind: every event recorded.
	r.Trace(TraceShardStart, 0, 7)
	// Stride-64 kind: events 0 and 64 recorded, the rest sampled out.
	for i := 0; i < 65; i++ {
		r.Trace(TraceDrop, time.Duration(i), uint32(i))
	}
	ev := r.Snapshot().Trace
	if len(ev) != 3 {
		t.Fatalf("trace = %d events, want 3: %+v", len(ev), ev)
	}
	if ev[0].Kind != TraceShardStart || ev[0].Arg != 7 {
		t.Errorf("ev[0] = %+v", ev[0])
	}
	if ev[1].Arg != 0 || ev[2].Arg != 64 {
		t.Errorf("sampled drops = %+v %+v, want args 0 and 64", ev[1], ev[2])
	}

	// Overflow: the ring retains the most recent TraceCap events.
	r2 := NewRegistry()
	for i := 0; i < TraceCap+10; i++ {
		r2.Trace(TraceShardMerge, time.Duration(i), uint32(i))
	}
	ev2 := r2.Snapshot().Trace
	if len(ev2) != TraceCap {
		t.Fatalf("overflowed ring = %d events, want %d", len(ev2), TraceCap)
	}
	if ev2[0].Arg != 10 || ev2[TraceCap-1].Arg != TraceCap+9 {
		t.Errorf("ring order: first %d last %d, want 10 and %d", ev2[0].Arg, ev2[TraceCap-1].Arg, TraceCap+9)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Inc(CNATDrops)
	b.Add(CNATDrops, 2)
	a.GaugeSet(GNATBindings, 3)
	b.GaugeSet(GNATBindings, 5)
	a.VecInc(VecNATDrops, 0)
	b.VecInc(VecNATDrops, 0)
	a.Observe(HNATBindingLifetime, time.Second)
	b.Observe(HNATBindingLifetime, time.Minute)
	a.Trace(TraceShardStart, 0, 0)
	m := Merge(a.Snapshot(), nil, b.Snapshot())
	if m.Counters[CNATDrops] != 3 {
		t.Errorf("merged counter = %d, want 3", m.Counters[CNATDrops])
	}
	if g := m.Gauges[GNATBindings]; g.Value != 8 || g.Peak != 8 {
		t.Errorf("merged gauge = %+v, want 8/8", g)
	}
	if m.Vecs[VecNATDrops][0] != 2 {
		t.Errorf("merged vec = %d, want 2", m.Vecs[VecNATDrops][0])
	}
	if h := m.Histos[HNATBindingLifetime]; h.Count != 2 || h.SumNS != int64(time.Second+time.Minute) {
		t.Errorf("merged histo = %+v", h)
	}
	if m.Trace != nil {
		t.Errorf("merged snapshot carries a trace: %+v", m.Trace)
	}
}

func TestProcStats(t *testing.T) {
	var p ProcStats
	p.AddPool(5, 1, 4, 3, 2)
	p.AddPool(1, 0, 1, 0, 1)
	p.SimProcUp()
	p.SimProcUp()
	p.SimProcDown()
	p.ShardUp()
	p.ShardDown()
	s := p.Snapshot()
	if s.PoolGets != 6 || s.PoolMisses != 1 || s.PoolPuts != 5 ||
		s.FrameGets != 3 || s.FramePuts != 3 || s.SimProcs != 1 || s.LiveShards != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestNames(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		if c.Name() == "" || c.Name() == "unknown_counter" {
			t.Errorf("counter %d has no name", c)
		}
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if g.Name() == "" || g.Name() == "unknown_gauge" {
			t.Errorf("gauge %d has no name", g)
		}
	}
	for h := Histo(0); h < NumHistos; h++ {
		if h.Name() == "" || h.Name() == "unknown_histo" {
			t.Errorf("histo %d has no name", h)
		}
	}
	for k := TraceKind(0); k < NumTraceKinds; k++ {
		if k.Name() == "" || k.Name() == "unknown" {
			t.Errorf("trace kind %d has no name", k)
		}
	}
}

// TestAllocsWritePath pins the write API at zero allocations: these
// calls sit on the sim/nat hot paths, where a single alloc per event
// would dominate the profile (see the AllocsPerRun pins in
// internal/sim and internal/netpkt, which re-assert this end to end).
func TestAllocsWritePath(t *testing.T) {
	r := NewRegistry()
	if n := testing.AllocsPerRun(200, func() {
		r.Inc(CSimEventsFired)
		r.Add(CNATTranslations, 2)
		r.VecInc(VecNATDrops, 1)
		r.GaugeInc(GNATBindings)
		r.GaugeDec(GNATBindings)
		r.GaugeSet(GSimSlabSlots, 12)
		r.Observe(HNATBindingLifetime, time.Second)
		r.Trace(TraceDrop, time.Second, 1)
	}); n != 0 {
		t.Errorf("live registry write path allocates %v/op, want 0", n)
	}
	var nilReg *Registry
	if n := testing.AllocsPerRun(200, func() {
		nilReg.Inc(CSimEventsFired)
		nilReg.Observe(HNATBindingLifetime, time.Second)
		nilReg.Trace(TraceDrop, time.Second, 1)
	}); n != 0 {
		t.Errorf("nil registry write path allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		Proc.AddPool(1, 0, 1, 1, 1)
		Proc.SimProcUp()
		Proc.SimProcDown()
	}); n != 0 {
		t.Errorf("ProcStats write path allocates %v/op, want 0", n)
	}
}
