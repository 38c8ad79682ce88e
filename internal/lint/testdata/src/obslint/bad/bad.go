// Package bad holds obslint true positives: deterministic simulation
// code reading telemetry back, which would let instrumentation feed
// into the run.
package bad

import "obs"

func DecideFromCounter(r *obs.Registry) bool {
	r.Inc(obs.CSimEventsFired) // write: fine
	s := r.Snapshot()          // want `obs.Snapshot reads telemetry from a deterministic package`
	return s.Counters[0] > 100
}

func MergeInSim(a, b *obs.Snapshot) *obs.Snapshot {
	return obs.Merge(a, b) // want `obs.Merge reads telemetry from a deterministic package`
}

func BucketPeek() int {
	return len(obs.BucketBounds()) // want `obs.BucketBounds reads telemetry from a deterministic package`
}

func ProcPeek() {
	obs.Proc.AddPool(1, 0, 1, 0, 0) // write: fine
	_ = obs.Proc.Snapshot()         // want `obs.Snapshot reads telemetry from a deterministic package`
}

func WallClockLaundering() int64 {
	// The obs wall-clock helpers exist for the merge boundary; calling
	// them from simulation code is a determinism leak too.
	t := obs.Now()             // want `obs.Now reads telemetry`
	return int64(obs.Since(t)) // want `obs.Since reads telemetry`
}
