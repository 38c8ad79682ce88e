package hgw

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Option configures a Runner (and thus a Run call).
type Option func(*settings)

// settings is the resolved option set shared by every experiment in a
// run.
type settings struct {
	tags      []string
	seed      int64
	probeOpts Options
	maxProcs  int
	progress  func(Progress)
	fleet     int
	shards    int
	deviceCB  func(DeviceEvent)
	report    bool
	reportCB  func(*RunReport)
	faults    FaultSpec
	memo      *MemoStore
}

func newSettings(opts []Option) settings {
	s := settings{shards: 1}
	for _, o := range opts {
		o(&s)
	}
	if s.maxProcs < 1 {
		s.maxProcs = runtime.NumCPU()
	}
	if s.fleet < 0 {
		s.fleet = 0
	}
	if s.shards < 1 {
		s.shards = 1
	}
	if s.fleet > 0 && s.shards > s.fleet {
		s.shards = s.fleet
	}
	return s
}

// CacheKey returns a stable content address for a Run request: the
// SHA-256 (hex) of the canonical form of everything the output is a
// function of — the resolved experiment ids, seed, tags, normalized
// probe options, the fleet/shard parameters and an enabled fault plan.
// Because Run output is a pure function of exactly these inputs, two
// requests with equal keys render byte-identical results, which is
// what lets a service answer repeated requests from cache (see
// internal/service and DESIGN.md §8).
//
// No request keys on WithMaxProcs: every experiment and every fleet
// shard runs in a sealed domain, so output is identical at any worker
// count and the same job submitted from a 1-core client and a 64-core
// client hits the same cache entry.
//
// Canonicalization matches Run's own request handling: ids are
// trimmed, alias-resolved and deduplicated (tcp3 and tcp2 share a key),
// an empty id list resolves to DefaultIDs — or FleetIDs when the
// options request fleet mode — and zero probe-option fields take their
// defaults (a zero Options and an explicit {Iterations: 5} share a
// key). Order stays significant where Run makes it significant: the id
// list (result order, fault plans seed-split by experiment index) and
// the tag list (testbed node order) are hashed in request order.
// Unknown ids return an *UnknownExperimentError, like Run.
func CacheKey(ids []string, opts ...Option) (string, error) {
	set := newSettings(opts)
	if len(ids) == 0 {
		if set.fleet > 0 {
			ids = FleetIDs()
		} else {
			ids = DefaultIDs()
		}
	}
	exps, err := resolveIDs(ids)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(set.canonical(exps)))
	return hex.EncodeToString(sum[:]), nil
}

// canonical renders the settings and a resolved experiment list in the
// stable textual form CacheKey hashes. Callback options (progress,
// device results) are deliberately absent: they observe a run without
// influencing its output.
func (s settings) canonical(exps []*Experiment) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tags=%s\n", strings.Join(s.tags, ","))
	// maxProcs is absent: domains are sealed, so output is independent
	// of the worker count.
	fmt.Fprintf(&sb, "fleet=%d\nshards=%d\n", s.fleet, s.shards)
	s.writeRunInputs(&sb, exps)
	return sb.String()
}

// runModel changes when some request renders differently with equal
// settings, so results persisted under the old model (hgwd -cache-dir,
// shard memo blobs) miss. 1: Standalone testbeds take fault plans.
const runModel = 1

// writeRunInputs writes the inputs CacheKey and ShardKey share: the
// execution model, the experiment ids in run order, the seed, the
// normalized probe options and an enabled fault plan.
func (s settings) writeRunInputs(sb *strings.Builder, exps []*Experiment) {
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	fmt.Fprintf(sb, "model=%d\nids=%s\nseed=%d\n", runModel, strings.Join(ids, ","), s.seed)
	o := s.probeOpts.Normalized()
	fmt.Fprintf(sb, "opts=iters:%d,res:%d,bytes:%d,retries:%d\n",
		o.Iterations, int64(o.Resolution), o.TransferBytes, o.Retries)
	if s.faults.Enabled() {
		// Fault plans change the output, so they key — but only when
		// enabled: an absent faults field and an explicit zero FaultSpec
		// hash identically to a request without faults. The normalized
		// form is hashed so the Rate shorthand and its expanded
		// per-class spec share a key.
		f := s.faults.normalized()
		fmt.Fprintf(sb, "faults=flap:%g,loss:%g,corrupt:%g,blackhole:%g,reboot:%g,lossp:%g,horizon:%d\n",
			f.Flaps, f.LossWindows, f.Corrupts, f.Blackholes, f.Reboots,
			f.LossP, int64(f.Horizon))
	}
}

// WithTags selects the gateways under test by their paper tag
// (default: all 34).
func WithTags(tags ...string) Option {
	return func(s *settings) { s.tags = append([]string(nil), tags...) }
}

// WithSeed seeds the simulations. Output is a pure function of (ids,
// tags, seed, options): runs agreeing on all of them render
// byte-identically, on any machine and at any WithMaxProcs. Every
// experiment runs on a testbed of its own, so its result equals a
// single-experiment run of the same seed.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithIterations sets the number of repeated measurements per device
// (the paper uses 100; the default is 5).
func WithIterations(n int) Option {
	return func(s *settings) { s.probeOpts.Iterations = n }
}

// WithTransferBytes sizes the TCP-2 bulk transfers (paper: 100 MB;
// default 8 MB).
func WithTransferBytes(n int) Option {
	return func(s *settings) { s.probeOpts.TransferBytes = n }
}

// WithOptions replaces the probe options wholesale, for the one
// setting without a dedicated Option: the search resolution.
func WithOptions(o Options) Option {
	return func(s *settings) { s.probeOpts = o }
}

// WithMaxProcs bounds how many testbeds a run keeps alive and
// simulating at once, across the whole run (default: runtime.NumCPU;
// values below 1 select the default). An inventory run holds one pool
// of maxProcs slots: a shared-testbed experiment's domain holds a slot
// for its whole life, and a Standalone experiment holds none itself
// but queues each testbed it builds (per device, per mode, per pair)
// on the same pool. A fleet run's shards share one pool the same way.
// It is a pure throughput knob with no reproducibility weight: every
// testbed is a sealed virtual time domain whose inputs depend only on
// the run's settings and its index, and results are assembled in
// request (or shard) order, so a run renders byte-identically at
// maxProcs 1, 4 or 64. It also sets the run's memory budget: at most
// maxProcs testbeds at once (plus, for fleets, a small pipeline
// window), which is what lets WithFleet(1_000_000) run in bounded
// memory.
func WithMaxProcs(n int) Option {
	return func(s *settings) { s.maxProcs = n }
}

// WithProgress installs a callback invoked when each experiment starts
// and finishes. It may be called concurrently from scheduler goroutines,
// but calls are serialized.
func WithProgress(fn func(Progress)) Option {
	return func(s *settings) { s.progress = fn }
}

// WithFleet switches the run to fleet mode: instead of the Table 1
// inventory, experiments measure n synthetic devices sampled from the
// paper's population distributions (deterministically from the run's
// seed), partitioned across WithShards sub-testbeds. Only experiments
// with a population Sweep can run in fleet mode; an empty id list runs
// FleetIDs. WithTags is ignored in fleet mode.
func WithFleet(n int) Option {
	return func(s *settings) { s.fleet = n }
}

// WithShards partitions a fleet across k independent sub-testbeds
// (default 1). Shards build and probe concurrently on up to
// WithMaxProcs workers — each owns a simulator — so bring-up and
// sweeps parallelize across shards instead of serializing every DHCP
// handshake and probe on one topology, and even single-threaded the
// per-shard topologies keep broadcast domains and event queues small.
// The shard count is part of the reproducibility contract: it decides
// the device partition and each shard's simulator seed. (Each shard
// holds at most 4094 devices, so million-device fleets need hundreds
// of shards; shards stream through a bounded window, so memory follows
// maxProcs, not the shard count.)
func WithShards(k int) Option {
	return func(s *settings) { s.shards = k }
}

// WithRunReport requests run telemetry: each domain (fleet shard or
// inventory testbed) gets its own obs registry, and
// when the run finishes fn receives the assembled RunReport (fn may be
// nil to collect the report for Runner.Report only). Telemetry observes a run without
// influencing it — registries are write-only from simulation code
// (obslint) and the report rides outside the result path — so CacheKey
// deliberately ignores this option, like the other callbacks, and
// equal-seed runs render byte-identically with or without it.
func WithRunReport(fn func(*RunReport)) Option {
	return func(s *settings) {
		s.report = true
		s.reportCB = fn
	}
}

// DeviceEvent is delivered to a WithDeviceResults callback once per
// device as fleet shards complete an experiment's sweep.
type DeviceEvent struct {
	// ExperimentID is the registry id of the sweep that produced the
	// result.
	ExperimentID string
	// Shard is the index of the sub-testbed the device ran on.
	Shard int
	// Result carries the device's tag and raw samples.
	Result DeviceResult
}

// WithDeviceResults installs a streaming callback invoked once per
// device during fleet runs, as each shard clears the merge step —
// front-ends can report fleet progress without waiting for the merged
// population figures. The event sequence is deterministic: shards are
// replayed in shard order, experiments in run order within a shard,
// devices in device order within an experiment — identical at any
// WithMaxProcs setting, so the stream itself is reproducible, not just
// the final render. Calls are serialized.
func WithDeviceResults(fn func(DeviceEvent)) Option {
	return func(s *settings) { s.deviceCB = fn }
}

// FaultSpec parameterizes deterministic fault injection (WithFaults):
// seeded chaos plans reproducing the paper's §4.4 quirk surface —
// spontaneous gateway reboots that wipe the NAT binding table and
// re-lease the WAN address over DHCP, link flaps, windows of random
// frame loss or corruption, and transient WAN blackholes. Rates are
// expected event counts per device over the plan horizon; fractional
// rates are resolved by seeded per-device draws. The plan is drawn from
// its own seed-split rng stream (independent of the fleet's profile
// draws), so equal-seed faulted runs render byte-identically at any
// worker count.
type FaultSpec struct {
	// Rate is shorthand: when > 0 and every per-class rate is zero, all
	// five classes run at this rate.
	Rate float64 `json:"rate,omitempty"`

	// Per-class expected events per device over the horizon.
	Flaps       float64 `json:"flaps,omitempty"`
	LossWindows float64 `json:"loss_windows,omitempty"`
	Corrupts    float64 `json:"corrupts,omitempty"`
	Blackholes  float64 `json:"blackholes,omitempty"`
	Reboots     float64 `json:"reboots,omitempty"`

	// LossP is the per-frame drop (and corruption-flip) probability
	// inside a loss or corrupt window (default 0.25).
	LossP float64 `json:"loss_p,omitempty"`

	// Horizon is the sim-time span after testbed bring-up over which
	// event start times are drawn (default 10 minutes).
	Horizon time.Duration `json:"horizon_ns,omitempty"`
}

// Enabled reports whether the spec schedules any faults. A zero
// FaultSpec is disabled and behaves — including for CacheKey — exactly
// like not passing WithFaults at all.
func (f FaultSpec) Enabled() bool {
	return f.Rate > 0 || f.Flaps > 0 || f.LossWindows > 0 ||
		f.Corrupts > 0 || f.Blackholes > 0 || f.Reboots > 0
}

// normalized expands the Rate shorthand and applies defaults, so
// equivalent specs hash and compile identically.
func (f FaultSpec) normalized() FaultSpec {
	if f.Rate > 0 && f.Flaps == 0 && f.LossWindows == 0 &&
		f.Corrupts == 0 && f.Blackholes == 0 && f.Reboots == 0 {
		f.Flaps, f.LossWindows, f.Corrupts, f.Blackholes, f.Reboots =
			f.Rate, f.Rate, f.Rate, f.Rate, f.Rate
	}
	f.Rate = 0
	if f.LossP <= 0 {
		f.LossP = 0.25
	}
	if f.Horizon <= 0 {
		f.Horizon = 10 * time.Minute
	}
	return f
}

// WithFaults installs a fault-injection plan on the run: every domain
// (fleet shard or inventory testbed, a Standalone experiment's
// included) compiles its own plan from the spec and its index-split
// plan seed and executes it against its devices.
// Faults are part of the output contract — CacheKey folds an enabled
// spec in — and of the determinism contract: equal-seed faulted runs
// render byte-identically at any WithMaxProcs setting. A zero spec is
// a no-op.
func WithFaults(f FaultSpec) Option {
	return func(s *settings) { s.faults = f }
}

// WithRetries sets the probe-side retry budget for setup exchanges
// under injected loss (default 0: fail fast, as unfaulted runs do).
func WithRetries(n int) Option {
	return func(s *settings) { s.probeOpts.Retries = n }
}
