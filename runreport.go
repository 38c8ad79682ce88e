package hgw

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hgw/internal/nat"
	"hgw/internal/obs"
)

// A RunReport is the telemetry side-channel of one Run: per-shard (or,
// for inventory runs, per-testbed) metric sections plus a deterministic
// merged total and a handful of process-wide diagnostics. Reports
// observe a run without influencing it — CacheKey ignores
// WithRunReport, and the instrumented packages only ever write their
// registries (obslint) — so requesting a report never changes what the
// run renders.
//
// Everything in a report except the wall-clock fields (WallMS at both
// levels) and the Process section is a pure function of the run's
// settings: Canonical() strips exactly those fields, and the
// determinism suite asserts canonical reports are byte-identical at
// any worker count.
type RunReport struct {
	// Fleet is true for WithFleet runs; Shards then holds one section
	// per fleet shard. Inventory runs report one section per testbed
	// instead: one per shared-testbed experiment, and one per testbed
	// a Standalone experiment runs on.
	Fleet bool `json:"fleet"`
	// Devices is the fleet population (0 for inventory runs).
	Devices int `json:"devices,omitempty"`
	// Shards holds the per-shard (or per-testbed) sections, in shard
	// (or id, then testbed) order — the same order the merge consumes
	// them.
	Shards []ShardReport `json:"shards"`
	// Totals is the deterministic merge of the sections' metrics,
	// folded in shard order: every fleet shard, and of an inventory run
	// the shared-testbed experiments' sections. A Standalone
	// experiment's testbeds are sectioned but not totalled, so an
	// inventory run's Totals count the same work whichever Standalone
	// experiments ride along.
	Totals MetricsSnapshot `json:"totals"`
	// WallMS is the run's wall-clock duration. Excluded from
	// Canonical.
	WallMS float64 `json:"wall_ms"`
	// Process snapshots process-wide diagnostics (pool traffic,
	// goroutine counts) at run end. These counters are shared by
	// everything in the process and depend on GC and scheduling, so
	// they are diagnostics only — excluded from Canonical.
	Process ProcessStats `json:"process"`
}

// ShardReport is one fleet shard's (or inventory testbed's) telemetry
// section.
type ShardReport struct {
	// Index is the shard index (fleet) or the experiment's position in
	// the run's id list (inventory; every testbed of a Standalone
	// experiment carries its position).
	Index int `json:"index"`
	// Devices is the shard's device count (0 for inventory runs).
	Devices int `json:"devices,omitempty"`
	// SimEndNS is the shard simulator's final virtual time.
	SimEndNS int64 `json:"sim_end_ns"`
	// WallMS is the shard's wall-clock build+sweep duration. Excluded
	// from Canonical.
	WallMS float64 `json:"wall_ms"`
	// Metrics is the shard registry's snapshot.
	Metrics MetricsSnapshot `json:"metrics"`
	// Trace is the shard's sampled event trace, oldest first.
	Trace []TraceEntry `json:"trace,omitempty"`
	// Memoized marks a shard served from the memo store
	// (WithShardMemo): its rows replayed from an earlier execution, so
	// no simulator ran and the section carries no metrics or trace.
	Memoized bool `json:"memoized,omitempty"`
}

// MetricsSnapshot is a registry snapshot in name-keyed form, the shape
// reports serialize. Keys come from the obs name registries (and, for
// Drops, the nat.DropReason registry), so they are stable across runs.
type MetricsSnapshot struct {
	Counters   map[string]uint64        `json:"counters"`
	Gauges     map[string]GaugeStat     `json:"gauges"`
	Drops      map[string]uint64        `json:"drops,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms"`
}

// GaugeStat is a gauge's level and high-water mark. Merged sections
// sum per-shard peaks — an upper bound, since simultaneity is not
// observable across independent virtual time domains.
type GaugeStat struct {
	Value int64 `json:"value"`
	Peak  int64 `json:"peak"`
}

// HistogramStat is one histogram's per-bucket counts (not cumulative;
// bucket i counts observations up to 4^i ms, the last bucket is +Inf).
type HistogramStat struct {
	Count   uint64   `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"`
}

// TraceEntry is one sampled shard trace event.
type TraceEntry struct {
	// AtNS is the event's virtual (simulated) timestamp.
	AtNS int64 `json:"at_ns"`
	// Kind is the event class ("binding_create", "drop", ...).
	Kind string `json:"kind"`
	// Arg is the kind-specific argument (external port, drop-reason
	// index, shard index, ...).
	Arg uint32 `json:"arg"`
}

// dropOverflowKey names the Drops entry accumulating vector slots past
// the registered reason list (obs.VecInc's clamp slot).
const dropOverflowKey = "(unregistered)"

// metricsFromSnapshot converts a registry snapshot to name-keyed form.
// Maps are built by walking the enum name registries, never by ranging
// another map, so construction is deterministic.
func metricsFromSnapshot(s *obs.Snapshot) MetricsSnapshot {
	m := MetricsSnapshot{
		Counters:   make(map[string]uint64, int(obs.NumCounters)),
		Gauges:     make(map[string]GaugeStat, int(obs.NumGauges)),
		Histograms: make(map[string]HistogramStat, int(obs.NumHistos)),
	}
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		m.Counters[c.Name()] = s.Counters[c]
	}
	for g := obs.Gauge(0); g < obs.NumGauges; g++ {
		m.Gauges[g.Name()] = GaugeStat{Value: s.Gauges[g].Value, Peak: s.Gauges[g].Peak}
	}
	drops := map[string]uint64{}
	for i, reason := range nat.AllDropReasons {
		if v := s.Vecs[obs.VecNATDrops][i]; v > 0 {
			drops[string(reason)] = v
		}
	}
	var overflow uint64
	for i := len(nat.AllDropReasons); i < obs.VecWidth; i++ {
		overflow += s.Vecs[obs.VecNATDrops][i]
	}
	if overflow > 0 {
		drops[dropOverflowKey] = overflow
	}
	if len(drops) > 0 {
		m.Drops = drops
	}
	for h := obs.Histo(0); h < obs.NumHistos; h++ {
		hv := s.Histos[h]
		m.Histograms[h.Name()] = HistogramStat{
			Count:   hv.Count,
			SumNS:   hv.SumNS,
			Buckets: append([]uint64(nil), hv.Buckets[:]...),
		}
	}
	return m
}

// traceEntries converts sampled obs events to report form.
func traceEntries(evs []obs.TraceEvent) []TraceEntry {
	if len(evs) == 0 {
		return nil
	}
	out := make([]TraceEntry, len(evs))
	for i, e := range evs {
		out[i] = TraceEntry{AtNS: int64(e.At), Kind: e.KindName(), Arg: e.Arg}
	}
	return out
}

// ProcessStats is the process-wide diagnostic section: packet-pool
// traffic, simulator worker coroutines and live shards (obs.Proc)
// plus the runtime goroutine count. The counts are cumulative over
// every domain in the process, concurrent runs included, and the
// gauges depend on scheduling — never compare it across runs.
type ProcessStats struct {
	PoolGets   uint64 `json:"pool_gets"`
	PoolMisses uint64 `json:"pool_misses"`
	PoolPuts   uint64 `json:"pool_puts"`
	FrameGets  uint64 `json:"frame_gets"`
	FramePuts  uint64 `json:"frame_puts"`
	SimProcs   int64  `json:"sim_procs"`
	LiveShards int64  `json:"live_shards"`
	Goroutines int    `json:"goroutines"`
}

// processStats snapshots obs.Proc and the runtime goroutine count.
func processStats() ProcessStats {
	p := obs.Proc.Snapshot()
	return ProcessStats{
		PoolGets:   p.PoolGets,
		PoolMisses: p.PoolMisses,
		PoolPuts:   p.PoolPuts,
		FrameGets:  p.FrameGets,
		FramePuts:  p.FramePuts,
		SimProcs:   p.SimProcs,
		LiveShards: p.LiveShards,
		Goroutines: runtime.NumGoroutine(),
	}
}

// Canonical renders the report's deterministic core as indented JSON:
// the wall-clock fields and the Process section — the only parts that
// depend on the machine or the scheduler — are zeroed, and JSON object
// keys serialize sorted, so two runs with equal settings produce
// byte-identical canonical reports at any worker count.
func (r *RunReport) Canonical() string {
	c := *r
	c.WallMS = 0
	c.Process = ProcessStats{}
	c.Shards = make([]ShardReport, len(r.Shards))
	for i, sh := range r.Shards {
		sh.WallMS = 0
		c.Shards[i] = sh
	}
	b, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		// A report is plain data; marshaling cannot fail.
		panic("hgw: canonical report: " + err.Error())
	}
	return string(b)
}

// Render formats the report as a human-readable text block (the shape
// hgprobe -stats prints).
func (r *RunReport) Render() string {
	var sb strings.Builder
	if r.Fleet {
		fmt.Fprintf(&sb, "run telemetry: fleet, %d devices, %d shards, %.1f ms wall\n",
			r.Devices, len(r.Shards), r.WallMS)
	} else {
		fmt.Fprintf(&sb, "run telemetry: inventory, %d testbeds, %.1f ms wall\n",
			len(r.Shards), r.WallMS)
	}
	sb.WriteString("totals:\n")
	renderMetrics(&sb, "  ", r.Totals)
	for i := range r.Shards {
		sh := &r.Shards[i]
		section := "experiment"
		if r.Fleet {
			section = "shard"
		}
		fmt.Fprintf(&sb, "%s %d: %d devices, sim end %s, %.1f ms wall, %d trace events\n",
			section, sh.Index, sh.Devices, time.Duration(sh.SimEndNS), sh.WallMS, len(sh.Trace))
	}
	p := r.Process
	fmt.Fprintf(&sb, "process: pool %d gets / %d misses / %d puts, frames %d/%d, sim procs %d, live shards %d, goroutines %d\n",
		p.PoolGets, p.PoolMisses, p.PoolPuts, p.FrameGets, p.FramePuts, p.SimProcs, p.LiveShards, p.Goroutines)
	return sb.String()
}

// renderMetrics prints one metrics section. Counters, gauges and
// histograms walk the obs name registries (enum order); drops sort
// their keys — no map ranges in render order.
func renderMetrics(sb *strings.Builder, indent string, m MetricsSnapshot) {
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		if v := m.Counters[c.Name()]; v != 0 {
			fmt.Fprintf(sb, "%s%-24s %d\n", indent, c.Name(), v)
		}
	}
	for g := obs.Gauge(0); g < obs.NumGauges; g++ {
		if gv := m.Gauges[g.Name()]; gv.Value != 0 || gv.Peak != 0 {
			fmt.Fprintf(sb, "%s%-24s %d (peak %d)\n", indent, g.Name(), gv.Value, gv.Peak)
		}
	}
	if len(m.Drops) > 0 {
		keys := make([]string, 0, len(m.Drops))
		for k := range m.Drops {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString(indent + "drops by reason:\n")
		for _, k := range keys {
			fmt.Fprintf(sb, "%s  %-22s %d\n", indent, k, m.Drops[k])
		}
	}
	for h := obs.Histo(0); h < obs.NumHistos; h++ {
		hv := m.Histograms[h.Name()]
		if hv.Count == 0 {
			continue
		}
		mean := time.Duration(hv.SumNS / int64(hv.Count))
		fmt.Fprintf(sb, "%s%-24s n=%d mean=%s\n", indent, h.Name(), hv.Count, mean)
	}
}
