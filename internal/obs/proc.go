package obs

import "sync/atomic"

// ProcStats is the process-wide telemetry block for values that are
// process-wide or scheduling-dependent — packet-pool traffic summed
// over every domain, goroutine and shard counts — and therefore live
// outside the per-shard Registry and outside every determinism-
// compared form. Writers are concurrent (every domain's pool flush,
// every sim worker coroutine, every fleet worker), so the slots are
// atomics.
//
// The same write-only discipline applies: deterministic packages bump
// these counters and never read them back (obslint enforces it); the
// operational edge (hgwd's /metrics, RunReport's process section)
// reads via Snapshot.
type ProcStats struct {
	poolGets   atomic.Uint64
	poolMisses atomic.Uint64
	poolPuts   atomic.Uint64
	frameGets  atomic.Uint64
	framePuts  atomic.Uint64
	simProcs   atomic.Int64
	liveShards atomic.Int64
}

// Proc is the process-wide instance every writer shares.
var Proc ProcStats

// AddPool adds one simulator domain's packet-pool traffic since its
// last flush: buffer gets, gets that found the domain's list empty and
// refilled it from the shared depot (misses), buffer puts, and frame
// gets and puts. Domains count in plain fields and flush in one call
// when a run returns and at shutdown, so no Get or Put pays an atomic.
func (p *ProcStats) AddPool(gets, misses, puts, frameGets, framePuts uint64) {
	p.poolGets.Add(gets)
	p.poolMisses.Add(misses)
	p.poolPuts.Add(puts)
	p.frameGets.Add(frameGets)
	p.framePuts.Add(framePuts)
}

// SimProcUp / SimProcDown track live simulator worker coroutines,
// those running a process and idle ones alike. The pair is the
// goroutine-leak tripwire: after a completed run whose simulators were
// Shutdown, the gauge must return to its baseline.
func (p *ProcStats) SimProcUp() { p.simProcs.Add(1) }

// SimProcDown is SimProcUp's exit-side counterpart.
func (p *ProcStats) SimProcDown() { p.simProcs.Add(-1) }

// ShardUp / ShardDown track testbed domains (fleet shards and inventory
// experiments) built and not yet released.
func (p *ProcStats) ShardUp() { p.liveShards.Add(1) }

// ShardDown is ShardUp's release-side counterpart.
func (p *ProcStats) ShardDown() { p.liveShards.Add(-1) }

// ProcSnapshot is the read-side form of ProcStats.
type ProcSnapshot struct {
	PoolGets   uint64 `json:"pool_gets"`
	PoolMisses uint64 `json:"pool_misses"`
	PoolPuts   uint64 `json:"pool_puts"`
	FrameGets  uint64 `json:"frame_gets"`
	FramePuts  uint64 `json:"frame_puts"`
	SimProcs   int64  `json:"sim_procs"`
	LiveShards int64  `json:"live_shards"`
}

// Snapshot reads the current process-wide values. Slots are loaded
// independently, so concurrent writers make the snapshot approximate.
func (p *ProcStats) Snapshot() ProcSnapshot {
	return ProcSnapshot{
		PoolGets:   p.poolGets.Load(),
		PoolMisses: p.poolMisses.Load(),
		PoolPuts:   p.poolPuts.Load(),
		FrameGets:  p.frameGets.Load(),
		FramePuts:  p.framePuts.Load(),
		SimProcs:   p.simProcs.Load(),
		LiveShards: p.liveShards.Load(),
	}
}
