package hgw

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"hgw/internal/fault"
	"hgw/internal/gateway"
	"hgw/internal/obs"
	"hgw/internal/report"
	"hgw/internal/stats"
	"hgw/internal/testbed"
)

// ProgressKind distinguishes the event classes a WithProgress callback
// receives. The zero value is ProgressExperiment, so callbacks written
// before shard events existed keep working unchanged.
type ProgressKind int

const (
	// ProgressExperiment marks experiment start/finish events (the
	// default kind; ID, Index and Total describe the experiment list).
	ProgressExperiment ProgressKind = iota
	// ProgressShard marks fleet shard start/merge events: Shard is the
	// shard index, Index/Total count shards, and ID is empty. Shard
	// start events arrive in worker-scheduling order; shard Done
	// events arrive strictly in shard index order (the merge order).
	// Inventory runs never emit shard events.
	ProgressShard
)

// Progress is the event delivered to a WithProgress callback when an
// experiment starts (Done false) and finishes (Done true). Every
// experiment in a run emits exactly one Done event; the preceding
// start event is omitted for experiments that never began executing
// (context cancelled, or their testbed failed to build). Fleet
// runs additionally emit ProgressShard events bracketing each shard's
// build/sweep and merge.
type Progress struct {
	// Kind is the event class (experiment by default).
	Kind ProgressKind
	// ID is the experiment's registry id (empty for shard events).
	ID string
	// Index is the experiment's position in the deduplicated id list,
	// or the shard index for shard events.
	Index int
	// Total is the number of experiments in the run, or the shard
	// count for shard events.
	Total int
	// Shard is the shard index for shard events (0 otherwise).
	Shard int
	// Done marks completion; Err carries the failure, if any.
	Done bool
	Err  error
}

// ExperimentError attributes a run failure to a single experiment. It
// unwraps to the underlying cause, so errors.Is sees sentinel errors
// (context.Canceled, ErrNotFleetCapable) through it.
type ExperimentError struct {
	// ID is the registry id of the experiment that failed.
	ID  string
	Err error
}

func (e *ExperimentError) Error() string { return fmt.Sprintf("experiment %s: %v", e.ID, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ExperimentError) Unwrap() error { return e.Err }

// ShardError attributes a fleet failure to one shard. A faulted shard
// that panics mid-sweep is recovered into a ShardError instead of
// poisoning the Runner: the error names the shard and the experiment
// that was executing, carries the population points of the experiments
// the shard did complete (Partial), and unwraps to the recovered panic.
// Shards are ephemeral to their Run, so the Runner stays reusable.
type ShardError struct {
	// Shard is the index of the shard that failed.
	Shard int
	// ExperimentID is the registry id of the experiment executing when
	// the shard failed (empty when the failure preceded the sweeps).
	ExperimentID string
	// Partial holds the per-device population points of the experiments
	// this shard completed before failing, in experiment-then-device
	// order. The merged run discards them — a partial fleet figure
	// would violate the determinism contract — but diagnostics and
	// callers recovering via errors.As can inspect them.
	Partial []DevicePoint
	// Err is the underlying cause (the recovered panic).
	Err error
}

func (e *ShardError) Error() string {
	if e.ExperimentID != "" {
		return fmt.Sprintf("shard %d: experiment %s: %v", e.Shard, e.ExperimentID, e.Err)
	}
	return fmt.Sprintf("shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// RunError is the error Run returns when experiments fail: it carries
// every failed experiment, not just the first one to fail,
// so callers can tell exactly which subset of a multi-experiment run
// needs re-running. Failures preserve requested-id order.
type RunError struct {
	Failures []*ExperimentError
}

func (e *RunError) Error() string {
	if len(e.Failures) == 1 {
		return e.Failures[0].Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d experiments failed:", len(e.Failures))
	for _, f := range e.Failures {
		fmt.Fprintf(&sb, "\n\t%s", f.Error())
	}
	return sb.String()
}

// IDs returns the failed experiment ids in requested order.
func (e *RunError) IDs() []string {
	out := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.ID
	}
	return out
}

// Unwrap exposes each failure to errors.Is/As traversal.
func (e *RunError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// runError folds per-experiment failures into a *RunError (nil when
// none failed). exps and errs are parallel slices.
func runError(exps []*Experiment, errs []error) error {
	var failures []*ExperimentError
	for i, err := range errs {
		if err != nil {
			failures = append(failures, &ExperimentError{ID: exps[i].ID, Err: err})
		}
	}
	if len(failures) == 0 {
		return nil
	}
	return &RunError{Failures: failures}
}

// Runner executes registry experiments in sealed domains.
//
// A domain is one freshly built Figure 1 testbed with its own
// simulator, fault plan, interrupt hook and (with WithRunReport)
// telemetry registry; it is built, run and shut down on its own, and
// nothing else ever touches it. Every testbed a Runner builds is one:
// inventory runs give each shared-testbed experiment one — built from
// the run's tags and seed, so an experiment observes exactly what a
// single-experiment run of it observes — and Standalone experiments
// one per device, mode or pair; fleet runs (WithFleet) give every
// shard one, swept by each experiment in turn.
//
// Domains share nothing, so scheduling cannot reach the output: up to
// WithMaxProcs testbeds are alive at once, run-wide (an inventory run's
// domains all draw on one pool), and results are assembled in request
// (or shard) order, so runs with equal seeds render byte-identically
// at any worker count.
// Domains are ephemeral — nothing carries over between runs — so a
// Runner stays reusable even after a cancelled or failed run.
type Runner struct {
	set settings

	mu            sync.Mutex
	testbedsBuilt int
	report        *RunReport
}

// NewRunner builds a Runner from options. A Runner is safe for
// sequential reuse; TestbedsBuilt accumulates across its runs.
func NewRunner(opts ...Option) *Runner {
	return &Runner{set: newSettings(opts)}
}

// TestbedsBuilt reports how many Figure 1 testbeds this Runner has
// constructed so far.
func (r *Runner) TestbedsBuilt() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.testbedsBuilt
}

// Report returns the telemetry report of this Runner's most recent
// completed Run, or nil when WithRunReport was not requested (or no
// run has finished yet).
func (r *Runner) Report() *RunReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report
}

// finishReport stores a completed run's report and delivers it to the
// WithRunReport callback.
func (r *Runner) finishReport(rep *RunReport) {
	r.mu.Lock()
	r.report = rep
	r.mu.Unlock()
	if r.set.reportCB != nil {
		r.set.reportCB(rep)
	}
}

// Run executes the experiments registered under ids (nil or empty runs
// DefaultIDs) and returns their results in id order. Unknown ids fail
// up front with an *UnknownExperimentError; duplicate and alias ids are
// deduplicated. When experiments fail, Run returns a *RunError listing
// every failed experiment id alongside the results that did complete.
// Run honors ctx: between experiments cancellation skips the remainder,
// and a cancelled in-flight probe is interrupted mid-simulation, so Run
// returns promptly with the context error attributed to the interrupted
// experiments.
func Run(ctx context.Context, ids []string, opts ...Option) (Results, error) {
	return NewRunner(opts...).Run(ctx, ids)
}

// Run implements the package-level Run on this Runner's settings.
func (r *Runner) Run(ctx context.Context, ids []string) (Results, error) {
	if r.set.fleet > 0 {
		return r.runFleet(ctx, ids)
	}
	if len(ids) == 0 {
		ids = DefaultIDs()
	}
	exps, err := resolveIDs(ids)
	if err != nil {
		return nil, err
	}

	var runStart time.Time
	if r.set.report {
		runStart = obs.Now()
	}
	total := len(exps)
	slots := make([]*Result, total)
	errs := make([]error, total)
	doms := make([][]*domain, total)
	p := make(pool, r.set.maxProcs)
	var wg sync.WaitGroup
	for i, e := range exps {
		// A domain holds its slot from before its build until its
		// simulator is shut down. Taking it here, in id order, starts
		// domains in id order; a Standalone experiment takes none itself
		// and queues its domains on the same pool (Env.each).
		if !e.Standalone {
			p.acquire()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !e.Standalone {
				defer p.release()
			}
			slots[i], doms[i], errs[i] = r.runExperiment(ctx, e, i, total, p)
			r.emit(Progress{ID: e.ID, Index: i, Total: total, Done: true, Err: errs[i]})
		}()
	}
	wg.Wait()

	if r.set.report {
		// Domains are sealed and finished (wg.Wait published them), so
		// their sections fold in id, then testbed order, like shards do.
		// Totals merge only the shared-testbed ones (RunReport.Totals).
		rep := &RunReport{}
		var snaps []*obs.Snapshot
		for i, ds := range doms {
			for _, d := range ds {
				if d == nil || d.reg == nil {
					continue
				}
				sec, snap := d.section()
				rep.Shards = append(rep.Shards, sec)
				if !exps[i].Standalone {
					snaps = append(snaps, snap)
				}
			}
		}
		rep.Totals = metricsFromSnapshot(obs.Merge(snaps...))
		rep.WallMS = float64(obs.Since(runStart)) / 1e6
		rep.Process = processStats()
		r.finishReport(rep)
	}

	out := make(Results, 0, total)
	for _, res := range slots {
		if res != nil {
			out = append(out, res)
		}
	}
	return out, runError(exps, errs)
}

// runExperiment runs inventory experiment e (position i of total): a
// Standalone experiment directly, its domains queued on the run's pool
// p (testbeds), any other in a sealed domain of its own. It returns
// the domains for the run report. A panicking experiment fails alone,
// with the panic as its error.
func (r *Runner) runExperiment(ctx context.Context, e *Experiment, i, total int, p pool) (res *Result, doms []*domain, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	env := &Env{Tags: r.set.tags, Seed: r.set.seed, Options: r.set.probeOpts}
	call := func() (res *Result, err error) {
		defer catch(&err)
		r.emit(Progress{ID: e.ID, Index: i, Total: total})
		return e.Run(ctx, env)
	}
	if e.Standalone {
		env.testbeds = r.testbeds(i, p, &doms)
		res, err = call()
	} else {
		doms = make([]*domain, 1)
		doms[0], err = r.runDomain(ctx, i, fault.PlanSeed(r.set.seed, i), buildTestbed(testbed.Config{Tags: env.Tags, Seed: env.Seed}),
			func(tb *Testbed, s *Sim) error {
				env.Testbed, env.Sim = tb, s
				res, err = call()
				return err
			})
	}
	if err == nil {
		// A cancelled context may have interrupted the probe
		// mid-simulation; the (possibly partial) result is unusable.
		if cerr := ctx.Err(); cerr != nil {
			res, err = nil, cerr
		}
	}
	return res, doms, err
}

// testbeds implements Env.each for the Standalone experiment at
// position pos: testbed i is a domain (runDomain) built from cfg(i),
// holding a slot of the run's pool p, with the fault plan
// fault.TestbedPlanSeed(seed, pos, i). Slots are taken in index order
// and the caller waits holding none; once ctx is cancelled no further
// testbed starts. It appends the domains to *doms in index order and
// returns the lowest index's error, a panic in fn included.
func (r *Runner) testbeds(pos int, p pool, doms *[]*domain) eachFunc {
	return func(ctx context.Context, n int, cfg func(i int) testbed.Config, fn func(i int, tb *Testbed, s *Sim) error) error {
		ds := make([]*domain, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n && ctx.Err() == nil; i++ {
			p.acquire()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer p.release()
				if ctx.Err() != nil {
					return
				}
				ds[i], errs[i] = r.runDomain(ctx, pos, fault.TestbedPlanSeed(r.set.seed, pos, i), buildTestbed(cfg(i)),
					func(tb *Testbed, s *Sim) (err error) {
						defer catch(&err)
						return fn(i, tb, s)
					})
			}()
		}
		wg.Wait()
		*doms = append(*doms, ds...)
		return cmp.Or(errs...)
	}
}

// catch, deferred, turns a panic in experiment code into its caller's
// error, so the experiment fails alone.
func catch(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v", v)
	}
}

// pool is an inventory run's WithMaxProcs slots. Every domain the run
// builds holds one for its whole life, so at most cap(p) testbeds are
// alive and simulating at once, run-wide. No slot holder ever waits for
// another slot, so every size, 1 included, makes progress. Waiting
// acquirers are served in arrival order, since a full channel queues
// its senders first come, first served.
type pool chan struct{}

func (p pool) acquire() { p <- struct{}{} }
func (p pool) release() { <-p }

// domain is one sealed execution domain's record: its index (the
// experiment's position in the resolved id list, or the fleet shard
// index) and, with WithRunReport, the registry that observed it plus
// the frame its report section needs.
type domain struct {
	index  int
	reg    *obs.Registry
	simEnd time.Duration
	wallMS float64
}

// runDomain is the lifecycle every testbed the Runner builds goes
// through, inventory testbed and fleet shard alike: attach a registry
// (WithRunReport), build, count the build, hook ctx into the simulator,
// install the fault plan drawn from planSeed, run, and shut the
// simulator down. The calling goroutine owns the simulator throughout.
// build's error, else run's, is returned; the domain record is
// returned either way.
func (r *Runner) runDomain(ctx context.Context, index int, planSeed int64,
	build func(reg *obs.Registry) (*Testbed, *Sim, error),
	run func(tb *Testbed, s *Sim) error) (*domain, error) {

	d := &domain{index: index}
	var start time.Time
	if r.set.report {
		d.reg = obs.NewRegistry()
		d.reg.Trace(obs.TraceShardStart, 0, uint32(index))
		start = obs.Now()
	}
	// The live-shard gauge brackets the domain's whole life: Up before
	// the build, Down after the deferred Shutdown unwinds the
	// simulator — the pairing the goroutine-leak tripwire test asserts
	// returns to baseline.
	obs.Proc.ShardUp()
	defer obs.Proc.ShardDown()
	tb, s, err := build(d.reg)
	if err != nil {
		return d, err
	}
	// Unwind the domain's processes before returning: servers park
	// forever and the Go runtime never collects a suspended coroutine,
	// so skipping this leaks the whole testbed per domain.
	defer s.Shutdown()
	r.mu.Lock()
	r.testbedsBuilt++
	r.mu.Unlock()
	// Poll ctx between events so cancellation interrupts a probe
	// mid-run instead of waiting it out.
	s.SetInterrupt(func() bool { return ctx.Err() != nil })
	// Chaos: the plan schedules its events before anything runs,
	// mirroring real faults striking mid-measurement.
	r.installFaults(s, tb, planSeed)
	err = run(tb, s)
	if r.set.report {
		d.simEnd = time.Duration(s.Now())
		d.wallMS = float64(obs.Since(start)) / 1e6
	}
	return d, err
}

// section snapshots a finished domain's registry into its report
// section. The caller must own the registry (the domain's run is over).
func (d *domain) section() (ShardReport, *obs.Snapshot) {
	snap := d.reg.Snapshot()
	return ShardReport{
		Index:    d.index,
		SimEndNS: int64(d.simEnd),
		WallMS:   d.wallMS,
		Metrics:  metricsFromSnapshot(snap),
		Trace:    traceEntries(snap.Trace),
	}, snap
}

// resolveIDs looks up, trims and deduplicates a requested id list.
func resolveIDs(ids []string) ([]*Experiment, error) {
	var exps []*Experiment
	seen := map[string]bool{}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			// Tolerate stray commas in CLI-assembled lists.
			continue
		}
		e, err := Lookup(id)
		if err != nil {
			return nil, err
		}
		if seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		exps = append(exps, e)
	}
	return exps, nil
}

// ErrNotFleetCapable is the sentinel wrapped by errors reporting an
// experiment without a population Sweep requested in fleet mode.
var ErrNotFleetCapable = errors.New("experiment has no population sweep")

// runFleet executes experiments against a synthetic device fleet: n
// profiles sampled from the paper's population distributions, split
// across k shard testbeds. Execution is shard-major: each shard is
// built, swept by every experiment in run order, reduced to population
// points and released, with up to WithMaxProcs shards in flight at
// once. Every shard is an independent virtual time domain and the
// merge consumes shards strictly in shard order, so the output —
// rendered figures and the WithDeviceResults stream alike — is
// byte-identical at any worker count (DESIGN.md §12).
func (r *Runner) runFleet(ctx context.Context, ids []string) (Results, error) {
	if len(ids) == 0 {
		ids = FleetIDs()
	}
	exps, err := resolveIDs(ids)
	if err != nil {
		return nil, err
	}
	for _, e := range exps {
		if e.Sweep == nil {
			return nil, fmt.Errorf("fleet mode: experiment %q: %w", e.ID, ErrNotFleetCapable)
		}
	}

	total := len(exps)
	for i, e := range exps {
		r.emit(Progress{ID: e.ID, Index: i, Total: total})
	}
	var runStart time.Time
	if r.set.report {
		runStart = obs.Now()
	}
	pts, rep, sweepErr := r.sweepShards(ctx, exps)
	if rep != nil {
		// Failed or cancelled sweeps return no report: a partial one
		// would not satisfy the determinism contract the report
		// documents.
		rep.WallMS = float64(obs.Since(runStart)) / 1e6
		rep.Process = processStats()
		r.finishReport(rep)
	}

	out := make(Results, 0, total)
	errs := make([]error, total)
	for i, e := range exps {
		if sweepErr != nil {
			// A failed or cancelled shard leaves every experiment's
			// figure incomplete: the failure is attributed to all of
			// them. The shards themselves were ephemeral to this Run,
			// so the Runner stays reusable.
			errs[i] = sweepErr
			r.emit(Progress{ID: e.ID, Index: i, Total: total, Done: true, Err: sweepErr})
			continue
		}
		fig := report.NewFigureFromPoints(e.Title, e.Unit, pts[i])
		text := fig.RenderSummary()
		if len(fig.Points) <= 40 {
			text = fig.Render(50, e.LogScale)
		}
		out = append(out, e.result(&fig, nil, text))
		r.emit(Progress{ID: e.ID, Index: i, Total: total, Done: true})
	}
	return out, runError(exps, errs)
}

// shardBatch is one shard's completed output, handed from its worker
// to the in-order merge: per-experiment population points (device
// order) plus, when a device callback is installed, the raw rows its
// events replay. skipped marks shards the dispatcher abandoned after
// cancellation, for which no window token was taken.
//
// When telemetry is on (WithRunReport), the batch also carries the
// shard's domain record: its registry plus the wall/sim-time frame the
// report needs. The registry rides the same happens-before edge as the
// points (the done-channel close), so the merger reads it race-free;
// the merger stamps the TraceShardMerge event itself — it is the
// registry's owner from that point on.
type shardBatch struct {
	pts     [][]stats.DevicePoint
	rows    [][]DeviceResult
	dom     *domain
	devices int
	err     error
	skipped bool
	// memo marks a batch replayed from the memo store; blob is an
	// executed shard's encoded rows, handed to the merger so only
	// shards that reach a successful merge populate the store.
	memo bool
	blob []byte
}

// sweepShards streams every fleet shard through the bounded pipeline
// and returns, per experiment, the concatenation of all shards'
// population points in shard order.
//
// Three goroutine roles cooperate:
//
//   - the dispatcher walks shards in index order, draws each shard's
//     profile chunk from one sequential gateway.SynthStream (chunking
//     does not perturb the stream, so the fleet population is never
//     materialized whole), and launches one worker per shard after
//     taking a window token;
//   - workers — at most maxProcs executing — build their shard, sweep
//     every experiment on it sequentially, reduce the device rows to
//     points and publish a shardBatch;
//   - the calling goroutine merges batches strictly in shard index
//     order, emits device events, accumulates points and returns the
//     shard's window token. The token return is what bounds resident
//     shards — the run's memory budget — to the window, a small
//     constant over maxProcs.
//
// Seed derivations, the profile stream and the merge order depend only
// on (settings, shard index), never on scheduling, so the returned
// points are identical at any maxProcs — and so is the returned
// telemetry report (nil unless WithRunReport), whose shard sections
// and merged totals are assembled in the same strict shard order.
func (r *Runner) sweepShards(ctx context.Context, exps []*Experiment) ([][]stats.DevicePoint, *RunReport, error) {
	bounds := testbed.Partition(r.set.fleet, r.set.shards)
	n := len(bounds) - 1
	procs := r.set.maxProcs
	if procs > n {
		procs = n
	}
	if procs < 1 {
		procs = 1
	}
	// The window's slack over procs lets finished shards await their
	// merge turn without idling workers behind a slow head shard.
	window := procs + 2

	batches := make([]shardBatch, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	winSem := make(chan struct{}, window)
	procSem := make(chan struct{}, procs)

	// With a memo store attached, every shard's content address is
	// known up front: keys depend only on (settings, shard index,
	// partition), never on execution.
	var memoKeys []string
	if r.set.memo != nil {
		memoKeys = make([]string, n)
		for i := 0; i < n; i++ {
			memoKeys[i] = shardKey(r.set, exps, i, bounds[i], bounds[i+1])
		}
	}

	work := func(i int, profiles []gateway.Profile) {
		b := &batches[i]
		// curExp names the experiment the sweep loop is executing, so a
		// recovered panic is attributable (ShardError) instead of the
		// historical anonymous "shard N: panic".
		var curExp string
		defer close(done[i])
		defer func() {
			if p := recover(); p != nil {
				// Salvage the points of the experiments this shard did
				// complete, then drop the batch's result fields: the
				// merger must not mistake a partial batch for a good one.
				var partial []stats.DevicePoint
				for _, ep := range b.pts {
					partial = append(partial, ep...)
				}
				b.err = &ShardError{
					Shard:        i,
					ExperimentID: curExp,
					Partial:      partial,
					Err:          fmt.Errorf("panic: %v", p),
				}
				b.pts, b.rows = nil, nil
			}
		}()
		if memoKeys != nil {
			// A blob that no longer decodes (e.g. written by an older
			// build) is a miss: fall through, re-execute, re-record.
			var rows [][]DeviceResult
			if _, ok := r.set.memo.Get(memoKeys[i], func(blob []byte) bool {
				var err error
				rows, err = decodeShardRows(blob, len(exps))
				return err == nil
			}); ok {
				// Memo hit: replay the recorded rows through the same
				// reduction the cold path uses — no worker slot, no
				// simulator, byte-identical merge. The window token
				// still bounds how many replayed batches are resident.
				r.emit(Progress{Kind: ProgressShard, Shard: i, Index: i, Total: n})
				b.pts = make([][]stats.DevicePoint, len(exps))
				for j := range rows {
					b.pts[j] = report.Points(rows[j])
				}
				if r.set.deviceCB != nil {
					b.rows = rows
				}
				b.devices = len(profiles)
				b.memo = true
				return
			}
		}
		procSem <- struct{}{}
		defer func() { <-procSem }()
		if err := ctx.Err(); err != nil {
			b.err = err
			return
		}
		r.emit(Progress{Kind: ProgressShard, Shard: i, Index: i, Total: n})
		build := func(reg *obs.Registry) (*Testbed, *Sim, error) {
			sh, err := testbed.BuildShard(profiles, i, bounds[i], r.set.seed, reg)
			if err != nil {
				return nil, nil, err
			}
			return sh.Testbed, sh.Sim, nil
		}
		b.devices = len(profiles)
		b.dom, b.err = r.runDomain(ctx, i, fault.PlanSeed(r.set.seed, i), build, func(tb *Testbed, s *Sim) error {
			b.pts = make([][]stats.DevicePoint, len(exps))
			if r.set.deviceCB != nil {
				b.rows = make([][]DeviceResult, len(exps))
			}
			var memoRows [][]DeviceResult
			if memoKeys != nil {
				memoRows = make([][]DeviceResult, len(exps))
			}
			for j, e := range exps {
				curExp = e.ID
				rows := e.Sweep(&Env{
					Seed:    r.set.seed + int64(i),
					Options: r.set.probeOpts,
					Testbed: tb,
					Sim:     s,
				})
				if err := ctx.Err(); err != nil {
					return err // interrupted mid-sweep: rows are incomplete
				}
				// Reduce rows to points here, so the merge accumulates
				// three floats per device instead of every raw sample.
				b.pts[j] = report.Points(rows)
				if b.rows != nil {
					b.rows[j] = rows
				}
				if memoRows != nil {
					memoRows[j] = rows
				}
			}
			if memoRows != nil {
				// Encode here (off the merge path), but let the merger do
				// the Put: only a shard that reaches a successful merge is
				// recorded, so a cancelled run never persists partial work.
				if blob, eerr := encodeShardRows(memoRows); eerr == nil {
					b.blob = blob
				}
			}
			return nil
		})
	}

	// Dispatcher: in-order shard launch under the window bound.
	go func() {
		stream := gateway.NewSynthStream(r.set.seed)
		for i := 0; i < n; i++ {
			select {
			case winSem <- struct{}{}:
			case <-ctx.Done():
				// Mark every undispatched shard so the merge loop
				// below never blocks on a worker that will not run.
				for ; i < n; i++ {
					batches[i].err = ctx.Err()
					batches[i].skipped = true
					close(done[i])
				}
				return
			}
			go work(i, stream.Next(bounds[i+1]-bounds[i]))
		}
	}()

	// Merge: strictly ascending shard order.
	pts := make([][]stats.DevicePoint, len(exps))
	var shardSnaps []*obs.Snapshot
	var shardReps []ShardReport
	var firstErr error
	for i := 0; i < n; i++ {
		<-done[i]
		b := &batches[i]
		if firstErr == nil {
			firstErr = b.err
		}
		if firstErr == nil {
			for j, e := range exps {
				if b.rows != nil {
					for _, dr := range b.rows[j] {
						r.emitDevice(DeviceEvent{ExperimentID: e.ID, Shard: i, Result: dr})
					}
				}
				pts[j] = append(pts[j], b.pts[j]...)
			}
			if b.blob != nil && memoKeys != nil {
				// Populate from the merge boundary: this shard executed
				// fully and its rows are now part of the run's output.
				r.set.memo.Put(memoKeys[i], b.blob)
			}
			if b.dom != nil && b.dom.reg != nil {
				// The worker is done with the registry (done[i] is
				// closed); the merger owns it now and stamps the
				// merge marker before snapshotting.
				b.dom.reg.Trace(obs.TraceShardMerge, b.dom.simEnd, uint32(i))
				sec, snap := b.dom.section()
				sec.Devices = b.devices
				shardSnaps = append(shardSnaps, snap)
				shardReps = append(shardReps, sec)
			} else if b.memo && r.set.report {
				// A memoized shard ran no simulator: its section records
				// the replay, carrying no metrics or trace.
				shardReps = append(shardReps, ShardReport{
					Index:    i,
					Devices:  b.devices,
					Memoized: true,
				})
			}
		}
		skipped := b.skipped
		if !skipped {
			r.emit(Progress{Kind: ProgressShard, Shard: i, Index: i, Total: n, Done: true, Err: b.err})
		}
		// Drop the batch before returning its token: the token lets
		// the dispatcher admit another shard, so this shard's rows
		// must already be collectable.
		*b = shardBatch{}
		if !skipped {
			<-winSem
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	var rep *RunReport
	if r.set.report {
		rep = &RunReport{
			Fleet:   true,
			Devices: r.set.fleet,
			Shards:  shardReps,
			Totals:  metricsFromSnapshot(obs.Merge(shardSnaps...)),
		}
	}
	return pts, rep, nil
}

// installFaults compiles the run's fault plan for one domain and
// schedules it on the simulator. The caller seed-splits the plan per
// domain (fault.PlanSeed, fault.TestbedPlanSeed), so each domain draws
// an independent event schedule while equal-seed runs reproduce it
// exactly; a disabled spec is a no-op, costing unfaulted runs nothing.
func (r *Runner) installFaults(s *Sim, tb *Testbed, planSeed int64) {
	if !r.set.faults.Enabled() {
		return
	}
	f := r.set.faults.normalized()
	plan := fault.Compile(fault.Spec{
		Seed:        planSeed,
		Nodes:       len(tb.Nodes),
		Flaps:       f.Flaps,
		LossWindows: f.LossWindows,
		Corrupts:    f.Corrupts,
		Blackholes:  f.Blackholes,
		Reboots:     f.Reboots,
		LossP:       f.LossP,
		Horizon:     f.Horizon,
	})
	nodes := make([]fault.NodeFaults, len(tb.Nodes))
	for i, n := range tb.Nodes {
		nodes[i] = fault.NodeFaults{
			WAN:    n.WANLink(),
			Reboot: n.Dev.Reboot,
		}
	}
	plan.Install(s, nodes)
}

// emitDevice serializes per-device fleet callbacks.
func (r *Runner) emitDevice(ev DeviceEvent) {
	if r.set.deviceCB == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.set.deviceCB(ev)
}

// buildTestbed builds and boots an inventory domain's testbed from cfg,
// translating the testbed package's setup panics into errors. reg,
// when non-nil, is attached before any event runs (WithRunReport).
func buildTestbed(cfg testbed.Config) func(reg *obs.Registry) (*Testbed, *Sim, error) {
	return func(reg *obs.Registry) (tb *Testbed, s *Sim, err error) {
		defer func() {
			if p := recover(); p != nil {
				tb, s, err = nil, nil, fmt.Errorf("testbed setup: %v", p)
			}
		}()
		cfg.Obs = reg
		tb, s = testbed.Run(cfg)
		return tb, s, nil
	}
}

// emit serializes progress callbacks.
func (r *Runner) emit(p Progress) {
	if r.set.progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.set.progress(p)
}
