// Package obs is the run-telemetry substrate: allocation-free metrics
// (counters, gauges, fixed-bucket histograms, a small vector family)
// collected on per-shard Registries, plus a sampled per-shard trace
// ring of sim-time-stamped events and a process-wide atomic counter
// block for the few values that are process-wide or scheduling-
// dependent (packet-pool traffic summed over all domains, live
// goroutines).
//
// The design splits telemetry along the determinism boundary
// (DESIGN.md §13):
//
//   - Registry values are deterministic: they are written single-
//     threaded by the domain (shard or experiment) owning it, they
//     count simulation events whose number and order are pure
//     functions of the seed, and they are merged strictly in shard-
//     index order. Equal-seed runs produce byte-identical merged
//     snapshots at any worker count.
//   - ProcStats values are nondeterministic by nature (pool hits
//     depend on GC timing, goroutine counts on scheduling) and are
//     therefore process-wide atomics, reported separately and excluded
//     from any determinism-compared form.
//
// The no-feedback rule makes instrumentation safe: deterministic
// packages (sim, nat, netpkt, testbed, gateway, ...) may only WRITE
// telemetry — the write API is nil-safe, so an uninstrumented run pays
// one branch per call — and may never read it back or read the wall
// clock through it. hgwlint's obslint analyzer machine-checks the
// rule; the fleet determinism matrix re-asserts it empirically with
// telemetry enabled.
package obs

// Counter identifies one deterministic per-registry event counter.
// Counters only ever increase and merge by summation.
type Counter uint8

// The counter registry. Adding a counter here (with a name below) is
// all it takes; snapshots, merging and report rendering pick it up.
const (
	// internal/sim: event-queue traffic.
	CSimEventsScheduled Counter = iota
	CSimEventsFired
	CSimEventsCanceled
	CSimCompactions
	CSimProcsSpawned
	// internal/nat: binding-table lifecycle.
	CNATBindingsCreated
	CNATBindingsExpired
	CNATBindingsRemoved
	CNATMappingsCreated
	CNATTranslations
	CNATDrops
	// internal/fault + internal/netem: injected chaos events. The
	// injector owns the per-event counters; netem counts the frames its
	// fault filter sheds; nat counts reboot binding-table wipes.
	CFaultLinkFlaps
	CFaultLossWindows
	CFaultCorruptWindows
	CFaultBlackholes
	CFaultReboots
	CFaultFramesDropped
	CNATBindingsWiped
	// NumCounters bounds the registry; it is not a counter.
	NumCounters
)

var counterNames = [NumCounters]string{
	CSimEventsScheduled: "sim_events_scheduled",
	CSimEventsFired:     "sim_events_fired",
	CSimEventsCanceled:  "sim_events_canceled",
	CSimCompactions:     "sim_compactions",
	CSimProcsSpawned:    "sim_procs_spawned",
	CNATBindingsCreated: "nat_bindings_created",
	CNATBindingsExpired: "nat_bindings_expired",
	CNATBindingsRemoved: "nat_bindings_removed",
	CNATMappingsCreated: "nat_mappings_created",
	CNATTranslations:    "nat_translations",
	CNATDrops:           "nat_drops",

	CFaultLinkFlaps:      "fault_link_flaps",
	CFaultLossWindows:    "fault_loss_windows",
	CFaultCorruptWindows: "fault_corrupt_windows",
	CFaultBlackholes:     "fault_blackholes",
	CFaultReboots:        "fault_reboots",
	CFaultFramesDropped:  "fault_frames_dropped",
	CNATBindingsWiped:    "nat_bindings_wiped",
}

// Name returns the counter's stable snake_case identifier (report and
// exposition wire format).
func (c Counter) Name() string {
	if c >= NumCounters {
		return "unknown_counter"
	}
	return counterNames[c]
}

// Gauge identifies one deterministic level value. Gauges track both
// the current value and the high-water mark; merged snapshots sum
// values and sum per-shard peaks (an upper bound on the fleet-wide
// peak, which is not observable without cross-shard time alignment).
type Gauge uint8

// The gauge registry.
const (
	// GSimSlabSlots is the event slab's size — its high-water mark is
	// the queue's peak footprint (slots are never returned).
	GSimSlabSlots Gauge = iota
	// GNATBindings / GNATMappings are the two levels of the binding
	// table, live across every device on the registry's shard.
	GNATBindings
	GNATMappings
	// NumGauges bounds the registry; it is not a gauge.
	NumGauges
)

var gaugeNames = [NumGauges]string{
	GSimSlabSlots: "sim_slab_slots",
	GNATBindings:  "nat_bindings_live",
	GNATMappings:  "nat_mappings_live",
}

// Name returns the gauge's stable snake_case identifier.
func (g Gauge) Name() string {
	if g >= NumGauges {
		return "unknown_gauge"
	}
	return gaugeNames[g]
}

// Vec identifies one small fixed-width family of counters indexed by a
// caller-defined dimension (obs cannot import the packages that own
// the dimensions, so indices are plain ints; the reader maps them back
// to names).
type Vec uint8

// The vec registry.
const (
	// VecNATDrops counts drops by nat.DropReason registry index
	// (dropreason.go order). internal/nat asserts its registry fits
	// VecWidth.
	VecNATDrops Vec = iota
	// NumVecs bounds the registry; it is not a vec.
	NumVecs
)

// VecWidth is every vec family's fixed index capacity. Out-of-range
// indices clamp to the last slot rather than being lost.
const VecWidth = 32

// Histo identifies one deterministic fixed-bucket duration histogram.
type Histo uint8

// The histogram registry.
const (
	// HNATBindingLifetime observes each binding's sim-time lifetime at
	// removal — the distribution behind the paper's timeout figures.
	HNATBindingLifetime Histo = iota
	// NumHistos bounds the registry; it is not a histogram.
	NumHistos
)

var histoNames = [NumHistos]string{
	HNATBindingLifetime: "nat_binding_lifetime",
}

// Name returns the histogram's stable snake_case identifier.
func (h Histo) Name() string {
	if h >= NumHistos {
		return "unknown_histo"
	}
	return histoNames[h]
}
