package testbed

import (
	"fmt"

	"hgw/internal/gateway"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

// A Shard is one independent sub-testbed of a fleet: its own simulator,
// switches and Figure 1 topology carrying a contiguous slice of the
// fleet's devices. Shards share nothing — simulator, event slab, rng
// stream and address space are all per-shard — so each shard is an
// independent virtual time domain: shards can be built and probed
// concurrently on any number of OS threads without perturbing each
// other's trajectories, and a sweep over a fleet of N devices costs k
// small topologies instead of one N-device topology whose broadcast
// domains (DHCP, ARP flooding) and event queue grow with N.
type Shard struct {
	// Index is the shard's position in the fleet, 0-based.
	Index int
	// Testbed is the shard's booted Figure 1 environment.
	Testbed *Testbed
	// Sim is the simulator driving this shard.
	Sim *sim.Sim
	// Offset is the fleet-wide index of the shard's first device.
	Offset int
}

// Close unwinds the shard's simulator processes and stops their
// coroutines (sim.Shutdown). A shard's servers park forever by design,
// and the Go runtime never collects a suspended coroutine, so dropping
// a shard without Close pins the whole sub-testbed in memory for the
// life of the process. Callers that discard shards — the streaming fleet
// runner above all — must Close each one when done with it.
func (sh *Shard) Close() { sh.Sim.Shutdown() }

// shardSeedStride separates per-shard simulator seeds; any odd stride
// works, a large prime keeps shard streams visibly unrelated.
const shardSeedStride = 7919

// ShardSeed derives shard index's simulator seed from the fleet seed.
// It is a pure function of (seed, index) — deliberately independent of
// the shard count, the device partition and every other shard — so a
// shard's rng stream (and with it its whole simulation trajectory) can
// never be perturbed by adding shards, removing shards, or the order
// in which shards happen to be scheduled or complete.
func ShardSeed(seed int64, index int) int64 {
	return seed + int64(index)*shardSeedStride
}

// ShardVLANBase derives shard index's first VLAN id from the fleet
// device offset of its first device. Disjoint VLAN ranges per shard
// keep the fleet reading as one switched topology split across
// sub-testbeds; like ShardSeed, the value depends only on (offset,
// index), not on other shards.
func ShardVLANBase(offset, index int) int {
	return 1000 + 2*offset + 2*index
}

// Partition splits n devices across k shards as evenly as possible,
// returning the start index of each shard plus a final n sentinel. The
// first n%k shards take one extra device.
func Partition(n, k int) []int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	bounds := make([]int, k+1)
	per, extra := n/k, n%k
	for i := 0; i < k; i++ {
		bounds[i+1] = bounds[i] + per
		if i < extra {
			bounds[i+1]++
		}
	}
	return bounds
}

// BuildShard builds and boots one fleet shard: profiles are the
// shard's contiguous device slice, index its 0-based shard number,
// offset the fleet-wide index of its first device, and seed the fleet
// seed (the shard's simulator seed is ShardSeed(seed, index)). Setup
// panics return as errors. The shard's construction inputs are all
// pure functions of (profiles, index, offset, seed), so equal
// arguments build byte-identical shards regardless of what any other
// shard is doing — the property that lets fleet runners build, sweep
// and discard shards on concurrent workers.
//
// reg, when non-nil, attaches a per-shard telemetry registry to the
// shard's simulator before any event runs. Registry writes never feed
// back into the simulation (obslint enforces write-only use from
// deterministic packages), so a nil and a non-nil registry build
// byte-identical shards.
func BuildShard(profiles []gateway.Profile, index, offset int, seed int64, reg *obs.Registry) (sh *Shard, err error) {
	defer func() {
		if p := recover(); p != nil {
			sh, err = nil, fmt.Errorf("testbed: fleet shard %d: %v", index, p)
		}
	}()
	tb, s := Run(Config{
		Profiles: profiles,
		Seed:     ShardSeed(seed, index),
		VLANBase: ShardVLANBase(offset, index),
		Obs:      reg,
	})
	return &Shard{Index: index, Testbed: tb, Sim: s, Offset: offset}, nil
}
