package obs

import "time"

// gauge tracks a level and its high-water mark.
type gauge struct {
	cur  int64
	peak int64
}

// A Registry is one shard's (or experiment's) deterministic metric block.
// It is strictly single-writer: the goroutine that owns the shard's
// simulator writes it with plain stores, and readers only see it after
// the shard's completion signal (a channel close) establishes the
// happens-before edge — the same transfer discipline the shard's
// result batch already rides.
//
// All write methods are nil-safe no-ops, so instrumented hot paths in
// an untelemetered run (*Registry == nil, the default) cost a single
// predictable branch and zero allocations.
type Registry struct {
	counters [NumCounters]uint64
	gauges   [NumGauges]gauge
	vecs     [NumVecs][VecWidth]uint64
	histos   [NumHistos]histo
	trace    traceRing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Inc adds one to a counter.
func (r *Registry) Inc(c Counter) {
	if r == nil {
		return
	}
	r.counters[c]++
}

// Add adds n to a counter.
func (r *Registry) Add(c Counter, n uint64) {
	if r == nil {
		return
	}
	r.counters[c] += n
}

// VecInc adds one to slot i of a vec family. Out-of-range indices
// clamp to the last slot so a registry grown past VecWidth miscounts
// visibly in one shared slot instead of dropping events.
func (r *Registry) VecInc(v Vec, i int) {
	if r == nil {
		return
	}
	if i < 0 || i >= VecWidth {
		i = VecWidth - 1
	}
	r.vecs[v][i]++
}

// GaugeInc adds one to a gauge, tracking the peak.
func (r *Registry) GaugeInc(g Gauge) {
	if r == nil {
		return
	}
	s := &r.gauges[g]
	s.cur++
	if s.cur > s.peak {
		s.peak = s.cur
	}
}

// GaugeDec subtracts one from a gauge.
func (r *Registry) GaugeDec(g Gauge) {
	if r == nil {
		return
	}
	r.gauges[g].cur--
}

// GaugeSet sets a gauge's level, tracking the peak.
func (r *Registry) GaugeSet(g Gauge, v int64) {
	if r == nil {
		return
	}
	s := &r.gauges[g]
	s.cur = v
	if v > s.peak {
		s.peak = v
	}
}

// Observe records one duration into a histogram.
func (r *Registry) Observe(h Histo, d time.Duration) {
	if r == nil {
		return
	}
	r.histos[h].observe(d)
}

// GaugeValue is a gauge's snapshot form.
type GaugeValue struct {
	Value int64 `json:"value"`
	Peak  int64 `json:"peak"`
}

// Snapshot is a registry's read-side form: fixed arrays indexed by the
// metric enums, plus the sampled trace unrolled oldest-first. Merged
// snapshots (Merge) carry no trace.
type Snapshot struct {
	Counters [NumCounters]uint64       `json:"counters"`
	Gauges   [NumGauges]GaugeValue     `json:"gauges"`
	Vecs     [NumVecs][VecWidth]uint64 `json:"vecs"`
	Histos   [NumHistos]HistoValue     `json:"histos"`
	Trace    []TraceEvent              `json:"trace,omitempty"`
}

// Snapshot copies the registry's state. Reading is the merge
// boundary's job (the fleet runner, after the shard's completion
// signal): obslint keeps deterministic packages off this method. A nil
// registry snapshots to an empty (all-zero) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	s.Counters = r.counters
	for g := range r.gauges {
		s.Gauges[g] = GaugeValue{Value: r.gauges[g].cur, Peak: r.gauges[g].peak}
	}
	s.Vecs = r.vecs
	for h := range r.histos {
		s.Histos[h] = HistoValue{Count: r.histos[h].count, SumNS: r.histos[h].sum, Buckets: r.histos[h].buckets}
	}
	s.Trace = r.trace.events()
	return s
}

// Merge folds snapshots into one total, in argument order (callers
// pass shard order, making the result deterministic): counters, vecs
// and histograms sum; gauge values sum and gauge peaks sum per-shard
// peaks — an upper bound on the fleet-wide simultaneous peak, which is
// not observable across independent virtual time domains. Traces are
// per-shard artifacts and are not merged. Nil snapshots are skipped.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for c := range s.Counters {
			out.Counters[c] += s.Counters[c]
		}
		for g := range s.Gauges {
			out.Gauges[g].Value += s.Gauges[g].Value
			out.Gauges[g].Peak += s.Gauges[g].Peak
		}
		for v := range s.Vecs {
			for i := range s.Vecs[v] {
				out.Vecs[v][i] += s.Vecs[v][i]
			}
		}
		for h := range s.Histos {
			out.Histos[h].add(s.Histos[h])
		}
	}
	return out
}
