// Package fault compiles seeded chaos plans into scheduled simulator
// events. The paper's §4.4 quirk surface — spontaneous gateway reboots
// that wipe the NAT binding table, flaky links, transient WAN outages —
// is modeled as a deterministic, replayable input: a Plan is a pure
// function of its Spec (seed, node count, per-class rates), and
// installing the same plan on the same testbed yields byte-identical
// runs at any worker count.
//
// Determinism argument: plan draws come from their own rng stream,
// seed-split with PlanSeed so they are independent of the fleet's
// profile/jitter draws (testbed.ShardSeed uses a different prime
// stride). Per-frame loss draws use per-link injector-owned rngs, never
// the simulator rng, so the draw sequence seen by non-fault consumers
// of sim.Rand matches an unfaulted run event-for-event until the first
// fault actually bites.
package fault

import (
	"math/rand"
	"sort"
	"time"
)

// Seed-split constants for the fault-plan rng stream. The stride is a
// prime distinct from testbed.ShardSeed's 7919 and the offset keeps
// plan seeds off the shard-seed lattice entirely, so fault draws can
// never collide with fleet profile draws at any shard index.
const (
	planSeedStride    = 104729
	planSeedOffset    = 524287
	testbedSeedStride = 15485863
)

// PlanSeed derives the fault-plan rng seed for one fleet shard or
// inventory experiment from the run seed.
func PlanSeed(seed int64, index int) int64 {
	return seed + int64(index)*planSeedStride + planSeedOffset
}

// TestbedPlanSeed derives the plan seed for testbed j of the inventory
// experiment at index, off every PlanSeed by a third prime stride.
func TestbedPlanSeed(seed int64, index, j int) int64 {
	return PlanSeed(seed, index) + int64(j+1)*testbedSeedStride
}

// Kind enumerates the fault event classes.
type Kind uint8

const (
	// KindFlap takes the WAN link down briefly (carrier loss).
	KindFlap Kind = iota
	// KindLoss opens a window of per-frame random loss on the WAN link.
	KindLoss
	// KindCorrupt opens a window of per-frame payload corruption.
	KindCorrupt
	// KindBlackhole takes the WAN link down for an extended outage.
	KindBlackhole
	// KindReboot power-cycles the gateway: the NAT binding table is
	// wiped and the WAN address is re-leased over DHCP (paper §4.4).
	KindReboot
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindFlap:
		return "flap"
	case KindLoss:
		return "loss"
	case KindCorrupt:
		return "corrupt"
	case KindBlackhole:
		return "blackhole"
	case KindReboot:
		return "reboot"
	}
	return "unknown"
}

// How long each fault class lasts once it strikes (DESIGN.md §14). A
// plan draws only when and where faults strike; their lengths are
// fixed.
const (
	flapDown     = 2 * time.Second  // brief WAN carrier loss
	lossDur      = 30 * time.Second // a loss window
	corruptDur   = 30 * time.Second // a corrupt window
	blackholeDur = 60 * time.Second // a WAN outage
	rebootDown   = 10 * time.Second // down before the DHCP re-lease
)

// Spec parameterizes Compile. Rates are expected event counts per node
// over the horizon; fractional parts are resolved by one Bernoulli draw
// per node and class.
type Spec struct {
	// Seed seeds the plan rng (use PlanSeed to split it per shard).
	Seed int64
	// Nodes is the number of gateway nodes the plan covers.
	Nodes int

	// Per-class expected events per node.
	Flaps       float64
	LossWindows float64
	Corrupts    float64
	Blackholes  float64
	Reboots     float64

	// LossP is the per-frame drop probability inside a loss window and
	// the per-frame flip probability inside a corrupt window
	// (default 0.25).
	LossP float64

	// Horizon is the span after Install over which event start times
	// are drawn (default 10 minutes).
	Horizon time.Duration
}

func (s Spec) withDefaults() Spec {
	if s.LossP <= 0 {
		s.LossP = 0.25
	}
	if s.Horizon <= 0 {
		s.Horizon = 10 * time.Minute
	}
	return s
}

// Event is one scheduled fault: Kind strikes Node at offset At after
// the plan is installed.
type Event struct {
	At   time.Duration
	Node int
	Kind Kind
}

// Plan is a compiled, immutable fault schedule.
type Plan struct {
	spec   Spec // normalized
	Events []Event
}

// Compile draws a plan from the spec. It is a pure function: equal
// specs compile to equal plans. Events are sorted by (At, Node, Kind)
// so installation order — and therefore the simulator event sequence —
// is independent of draw order.
func Compile(spec Spec) *Plan {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	classes := [...]struct {
		kind Kind
		rate float64
	}{
		{KindFlap, spec.Flaps},
		{KindLoss, spec.LossWindows},
		{KindCorrupt, spec.Corrupts},
		{KindBlackhole, spec.Blackholes},
		{KindReboot, spec.Reboots},
	}
	var evs []Event
	for n := 0; n < spec.Nodes; n++ {
		for _, c := range classes {
			count := int(c.rate)
			if frac := c.rate - float64(count); frac > 0 && rng.Float64() < frac {
				count++
			}
			for i := 0; i < count; i++ {
				at := time.Duration(rng.Int63n(int64(spec.Horizon)))
				evs = append(evs, Event{At: at, Node: n, Kind: c.kind})
			}
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
	return &Plan{spec: spec, Events: evs}
}
