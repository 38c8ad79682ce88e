// Package service turns the hgw experiment registry into a shared
// measurement facility: clients submit experiment requests as jobs, a
// bounded FIFO queue feeds a fixed worker pool draining jobs through
// hgw.Run, and a content-addressed result store (a memo.Store, the
// same two-tier LRU that memoizes fleet shards) answers repeated
// requests with the byte-identical results of the first run (hgw.Run
// output is a pure function of the request's cache key, so cached
// answers are exactly what a re-run would produce). Command hgwd
// exposes the service over HTTP; DESIGN.md §8 documents the
// architecture.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hgw"
	"hgw/internal/memo"
	"hgw/internal/obs"
)

// Spec is a job request: the subset of hgw.Run inputs a client can
// submit. The zero value of every field means "the registry default"
// (all experiments, seed 0, the 34-device inventory, default probe
// options). Field names double as the POST /v1/jobs JSON body.
type Spec struct {
	IDs           []string `json:"ids,omitempty"`
	Tags          []string `json:"tags,omitempty"`
	Seed          int64    `json:"seed"`
	Iterations    int      `json:"iterations,omitempty"`
	TransferBytes int      `json:"transfer_bytes,omitempty"`
	Fleet         int      `json:"fleet,omitempty"`
	Shards        int      `json:"shards,omitempty"`
	// MaxProcs bounds concurrent experiments or fleet shard workers
	// (0 = NumCPU on the serving node). It is a pure throughput knob:
	// output — and therefore the job's cache key — is identical at any
	// value, so clients on differently-sized machines share cache
	// entries.
	MaxProcs int `json:"max_procs,omitempty"`
	// Faults enables deterministic fault injection (hgw.WithFaults).
	// Absent or all-zero it contributes nothing to the cache key, so
	// every pre-fault client request keeps its existing content address.
	Faults *hgw.FaultSpec `json:"faults,omitempty"`
}

// options translates the Spec into hgw.Run options (without callbacks,
// which the worker adds per job).
func (sp Spec) options() []hgw.Option {
	opts := []hgw.Option{hgw.WithSeed(sp.Seed)}
	if len(sp.Tags) > 0 {
		opts = append(opts, hgw.WithTags(sp.Tags...))
	}
	if sp.Iterations > 0 {
		opts = append(opts, hgw.WithIterations(sp.Iterations))
	}
	if sp.TransferBytes > 0 {
		opts = append(opts, hgw.WithTransferBytes(sp.TransferBytes))
	}
	if sp.Fleet > 0 {
		opts = append(opts, hgw.WithFleet(sp.Fleet), hgw.WithShards(sp.Shards))
	}
	if sp.MaxProcs > 0 {
		opts = append(opts, hgw.WithMaxProcs(sp.MaxProcs))
	}
	if sp.Faults != nil {
		opts = append(opts, hgw.WithFaults(*sp.Faults))
	}
	return opts
}

// CacheKey returns the spec's content address (hgw.CacheKey over the
// spec's ids and options). Unknown experiment ids surface here, before
// the job is accepted.
func (sp Spec) CacheKey() (string, error) {
	return hgw.CacheKey(sp.IDs, sp.options()...)
}

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: queued → running → one of the terminal states.
// Cache hits jump straight from queued to done; shutdown moves queued
// and running jobs to canceled.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// terminal reports whether a job in this status will never change again.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is one submitted measurement request. All mutable state is
// guarded by mu; readers use Snapshot or the streaming helpers.
type Job struct {
	// ID is the service-assigned job identifier.
	ID string
	// Key is the spec's content address in the result cache.
	Key string
	// Spec is the request as submitted.
	Spec Spec

	// fl is the execution this job rides on (nil for cache hits).
	// Written while the job is registered under Service.mu and read by
	// Cancel under the same lock.
	fl *flight

	mu        sync.Mutex
	cond      *sync.Cond // broadcast on event append and on finish
	status    Status
	errText   string
	cached    bool
	coalesced bool // attached to an already-in-flight execution
	results   json.RawMessage
	events    ndjson        // device rows streamed or replayed so far
	elapsed   time.Duration // wall time spent in hgw.Run (0 for cache hits)
	done      chan struct{} // closed when the job reaches a terminal state
	submitAt  time.Time
}

func newJob(id, key string, spec Spec) *Job {
	j := &Job{ID: id, Key: key, Spec: spec, status: StatusQueued,
		done: make(chan struct{}), submitAt: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// setRunning marks the job in flight; it reports false when the job is
// already terminal (canceled while queued).
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return false
	}
	j.status = StatusRunning
	return true
}

// streamed sets the job's rows to its flight's rows so far and wakes
// stream readers. A flight only appends to its rows, so each call
// extends what the job held, and a late subscriber sees the full
// deterministic sequence without a copy of its own. Terminal jobs (a
// subscriber canceled mid-flight) stop following.
func (j *Job) streamed(rows ndjson) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.events = rows
	j.cond.Broadcast()
}

// markCoalesced records that the job attached to an in-flight
// execution rather than scheduling its own.
func (j *Job) markCoalesced() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.coalesced = true
}

// finish moves the job to a terminal state exactly once. Rows with
// non-nil bytes replace the buffered ones: the same rows, now a slice
// of the cached blob.
func (j *Job) finish(status Status, results json.RawMessage, rows ndjson,
	cached bool, elapsed time.Duration, errText string) {

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.status = status
	j.results = results
	if rows.b != nil {
		j.events = rows
	}
	j.cached = cached
	j.elapsed = elapsed
	j.errText = errText
	close(j.done)
	j.cond.Broadcast()
}

// WaitEvents blocks until the job buffers more than sent bytes of
// device rows, reaches a terminal state, or Wake is called, then
// returns the bytes after sent and whether the job is terminal. The
// bytes are NDJSON: one hgw.DeviceEvent per line, as json.Encoder
// writes it, and callers must not modify them. Callers loop; a return
// with no new bytes and terminal false is a deliberate wakeup, giving
// the caller a chance to re-check external state (a dropped client).
func (j *Job) WaitEvents(sent int) (next []byte, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events.b) <= sent && !j.status.terminal() {
		j.cond.Wait()
	}
	// Rows are only ever appended, so the bytes before len are final.
	return j.events.b[sent:len(j.events.b):len(j.events.b)], j.status.terminal()
}

// Wake unblocks every WaitEvents caller without changing job state.
// Stream handlers arrange a Wake when their client disconnects, so a
// handler isn't pinned for the lifetime of a long job nobody watches.
func (j *Job) Wake() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cond.Broadcast()
}

// View is the JSON shape of a job in API responses. Results holds the
// canonical hgw.Results JSON verbatim, so equal-key jobs carry
// byte-identical Results fields.
type View struct {
	ID        string          `json:"id"`
	Key       string          `json:"key"`
	Spec      Spec            `json:"spec"`
	Status    Status          `json:"status"`
	Error     string          `json:"error,omitempty"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Devices   int             `json:"devices"`
	Results   json.RawMessage `json:"results,omitempty"`
}

// Snapshot returns the job's current state for JSON rendering.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return View{
		ID:        j.ID,
		Key:       j.Key,
		Spec:      j.Spec,
		Status:    j.status,
		Error:     j.errText,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		ElapsedMS: float64(j.elapsed) / float64(time.Millisecond),
		Devices:   j.events.n,
		Results:   j.results,
	}
}

// flight is one scheduled execution of a cache key, shared by every
// job submitted with that key while it is queued or running
// (single-flight, DESIGN.md §15). Members attach and detach under
// fl.mu; the execution is cancelled only when every member has
// detached — a subscriber's cancel never cancels the leader, and a
// leader's cancel promotes the surviving subscribers. Lock order:
// Service.mu → flight.mu → Job.mu.
type flight struct {
	key  string
	spec Spec

	// ctx is a child of the service context; cancel interrupts the
	// execution (hgw.Run aborts mid-simulation) once no member wants it.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	running bool
	done    bool
	members []*Job
	rows    ndjson        // rows streamed so far, shared with every member
	enc     *json.Encoder // writes each row into rows
}

func newFlight(parent context.Context, key string, spec Spec) *flight {
	ctx, cancel := context.WithCancel(parent)
	fl := &flight{key: key, spec: spec, ctx: ctx, cancel: cancel}
	fl.enc = json.NewEncoder(&fl.rows)
	return fl
}

// attach adds j as a member, replaying already-streamed rows and the
// running state. It reports false when the flight has already
// completed — the caller falls back to the cache or a fresh flight.
func (fl *flight) attach(j *Job) bool {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.done {
		return false
	}
	fl.members = append(fl.members, j)
	j.fl = fl
	if fl.rows.n > 0 {
		j.streamed(fl.rows)
	}
	if fl.running {
		j.setRunning()
	}
	return true
}

// detach removes j from the member list. It reports true when the
// flight now has no members and has not completed: the caller owns
// cancelling it.
func (fl *flight) detach(j *Job) bool {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for i, m := range fl.members {
		if m == j {
			fl.members = append(fl.members[:i], fl.members[i+1:]...)
			break
		}
	}
	return len(fl.members) == 0 && !fl.done
}

// emit encodes one streamed device event as an NDJSON row, appends it
// to the flight's rows and points every current member at them (the
// worker installs it as the run's device callback). The row is encoded
// once, here, by a json.Encoder; jobs, the result store and /stream
// pass its bytes through.
func (fl *flight) emit(ev hgw.DeviceEvent) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.enc.Encode(ev) != nil {
		return // a DeviceEvent holds no value JSON cannot encode
	}
	for _, j := range fl.members {
		j.streamed(fl.rows)
	}
}

// markRunning flips the flight and every member to running.
func (fl *flight) markRunning() {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.running = true
	for _, j := range fl.members {
		j.setRunning()
	}
}

// complete marks the flight done and hands back the members to finish.
// After complete, attach refuses — late identical submissions take the
// cache path or a fresh flight.
func (fl *flight) complete() []*Job {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.done = true
	members := fl.members
	fl.members = nil
	return members
}

// Errors Submit and Cancel return besides invalid-spec errors from
// hgw.CacheKey.
var (
	// ErrQueueFull reports a bounded queue with no room; clients retry
	// later (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrStopped reports a submission to a service that is shutting
	// down or was never started (HTTP 503).
	ErrStopped = errors.New("service: not accepting jobs")
	// ErrUnknownJob reports a Cancel of an id the service never issued
	// (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobTerminal reports a Cancel of a job that already finished
	// (HTTP 409).
	ErrJobTerminal = errors.New("service: job already in a terminal state")
)

// Config sizes the service. Zero fields take the defaults.
type Config struct {
	// Workers is the worker-pool size (default 2). Each worker runs one
	// job at a time through hgw.Run.
	Workers int
	// QueueDepth bounds the FIFO of jobs waiting for a worker (default
	// 16); Submit fails with ErrQueueFull past it.
	QueueDepth int
	// CacheEntries bounds the memory tier of the content-addressed
	// result cache (default 64 completed runs; LRU eviction).
	CacheEntries int
	// CacheDir, when non-empty, persists completed work there: the
	// result cache's entries under CacheDir/results and the fleet shard
	// memo store under CacheDir/shards, both content-addressed,
	// checksummed and atomically written, so they survive restarts. An
	// unusable (e.g. read-only) directory degrades the service to
	// memory-only — recorded in Warnings, never fatal.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	return c
}

// Stats is the service-wide counter snapshot served by GET /v1/stats.
// The reuse stack is fully observable here: Cache covers both result
// tiers, Memo the shard memo store, Coalesced the submissions that
// attached to an in-flight execution, and JobsExecuted the runs that
// actually hit a worker — requests minus every flavor of reuse.
type Stats struct {
	Cache         CacheStats      `json:"cache"`
	Memo          memo.StoreStats `json:"memo"`
	Coalesced     uint64          `json:"coalesced"`
	JobsExecuted  uint64          `json:"jobs_executed"`
	QueueDepth    int             `json:"queue_depth"`
	QueueCapacity int             `json:"queue_capacity"`
	Workers       int             `json:"workers"`
	WorkersBusy   int             `json:"workers_busy"`
	UptimeMS      float64         `json:"uptime_ms"`
	Jobs          map[Status]int  `json:"jobs"`
}

// allStatuses lists every job lifecycle state, for stable rendering of
// per-status gauges (the /metrics exposition iterates this, never the
// Jobs map).
var allStatuses = []Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled}

// Service is the measurement daemon's core: queue, workers and cache.
// Create with New, begin draining with Start, stop with Shutdown.
type Service struct {
	cfg      Config
	results  *memo.Store    // result blobs (cache.go) under their CacheKey
	memo     *hgw.MemoStore // shard-level memo for fleet jobs
	queue    chan *flight
	warnings []string // startup degradations (read-only cache dir)

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // insertion order, for Jobs()
	flights map[string]*flight
	nextID  int

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	stopOnce sync.Once

	started   time.Time       // set by Start; zero until then
	busy      atomic.Int64    // workers currently inside hgw.Run
	coalesced atomic.Uint64   // submissions attached to an in-flight execution
	executed  atomic.Uint64   // flights that actually entered hgw.Run
	jobDur    obs.AtomicHisto // wall durations of actually-executed jobs

	// enqueued, when set (by tests), runs in Submit right after a new
	// flight was sent to the queue, with s.mu held.
	enqueued func(*flight)
}

// New builds a Service from cfg. Jobs are not accepted until Start. An
// unusable CacheDir never fails construction: the affected tier runs
// memory-only and the condition lands in Warnings for the operator.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		queue:   make(chan *flight, cfg.QueueDepth),
		jobs:    map[string]*Job{},
		flights: map[string]*flight{},
	}
	resultCfg := memo.Config{MaxEntries: cfg.CacheEntries}
	memoCfg := hgw.MemoConfig{}
	if cfg.CacheDir != "" {
		resultCfg.Dir = filepath.Join(cfg.CacheDir, "results")
		memoCfg.Dir = filepath.Join(cfg.CacheDir, "shards")
	}
	var err error
	if s.results, err = memo.Open(resultCfg); err != nil {
		s.warnings = append(s.warnings,
			fmt.Sprintf("persistent result cache disabled, running memory-only: %v", err))
	}
	if s.memo, err = hgw.OpenMemo(memoCfg); err != nil {
		s.warnings = append(s.warnings,
			fmt.Sprintf("shard memo disk tier disabled, running memory-only: %v", err))
	}
	return s
}

// Warnings returns the degradations New tolerated (e.g. a read-only
// cache dir). Operators surface these in logs; the service is healthy
// but forgets on restart.
func (s *Service) Warnings() []string {
	return append([]string(nil), s.warnings...)
}

// Start spawns the worker pool. Cancelling ctx has the same effect as
// Shutdown: workers stop picking up jobs and the in-flight runs are
// interrupted (hgw.Run aborts mid-simulation on context cancellation).
func (s *Service) Start(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx != nil {
		return
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.started = time.Now()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Submit validates and registers a job, serving it by the cheapest
// means available: a cache hit (either tier) completes the job
// synchronously from the stored bytes; an identical in-flight
// execution absorbs the job as a coalesced subscriber; otherwise a new
// flight is enqueued FIFO, failing with ErrQueueFull when the queue is
// at capacity.
func (s *Service) Submit(spec Spec) (*Job, error) {
	s.mu.Lock()
	ctx := s.ctx
	s.mu.Unlock()
	if ctx == nil || ctx.Err() != nil {
		return nil, ErrStopped
	}
	key, err := spec.CacheKey()
	if err != nil {
		return nil, err
	}

	// Accept-and-register is one critical section, re-checking the
	// context under the same lock Shutdown's queue drain holds: a job
	// either lands in the queue before the drain runs (and gets
	// canceled by it) or observes the cancelled context and is
	// rejected — it can never be enqueued after the drain with no
	// worker left to run it. Registration only happens for accepted
	// jobs, so a full queue leaves no stale entry behind.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return nil, ErrStopped
	}
	s.nextID++
	job := newJob(fmt.Sprintf("job-%d", s.nextID), key, spec)
	register := func() {
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
	}
	hit := func() bool {
		results, rows, ok := s.lookup(key)
		if ok {
			register()
			job.finish(StatusDone, results, rows, true, 0, "")
		}
		return ok
	}
	if hit() {
		return job, nil
	}
	// Single-flight: an identical key already queued or running absorbs
	// this job. attach refuses once the flight has completed; runFlight
	// stores a flight's results before sealing it and unpublishes it
	// only under s.mu, which this critical section holds, so a refused
	// attach re-reads the cache and finds those results unless the
	// flight failed or was canceled.
	if fl := s.flights[key]; fl != nil {
		if fl.attach(job) {
			job.markCoalesced()
			s.coalesced.Add(1)
			register()
			return job, nil
		}
		if hit() {
			return job, nil
		}
	}
	// The job joins the new flight before the flight is published to
	// the workers: once it is in the queue, a worker may run and seal
	// it at any moment, and a flight sealed with no members would leave
	// the job queued forever.
	fl := newFlight(s.ctx, key, spec)
	fl.attach(job)
	select {
	case s.queue <- fl:
		if s.enqueued != nil {
			s.enqueued(fl)
		}
		s.flights[key] = fl
		register()
		return job, nil
	default:
		fl.cancel() // release the child context; the flight never ran
		return nil, ErrQueueFull
	}
}

// lookup reads key's result blob from either tier of the result store
// and slices it into the results bytes and the NDJSON event rows. A
// blob that does not decode (an older format) is a miss, and the store
// drops it; the re-run's put stores its replacement.
func (s *Service) lookup(key string) (results json.RawMessage, rows ndjson, ok bool) {
	_, ok = s.results.Get(key, func(blob []byte) bool {
		results, rows, ok = decodeResult(blob)
		return ok
	})
	return results, rows, ok
}

// Cancel cancels one job. A coalesced subscriber detaches without
// disturbing the shared execution; only when the last member of a
// flight cancels is the execution itself interrupted (a queued flight
// is abandoned, a running one aborts mid-simulation). Cancelling a
// terminal job returns ErrJobTerminal alongside the job.
func (s *Service) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.Status().terminal() {
		return j, ErrJobTerminal
	}
	if fl := j.fl; fl != nil && fl.detach(j) {
		// Last member gone: nobody wants this execution anymore.
		fl.cancel()
		fl.complete()
		if s.flights[fl.key] == fl {
			delete(s.flights, fl.key)
		}
	}
	j.finish(StatusCanceled, nil, ndjson{}, false, 0, "canceled by client")
	return j, nil
}

// Job returns a submitted job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every registered job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Cache:         cacheStats(s.results.Stats(), s.cfg.CacheEntries),
		Memo:          s.memo.Stats(),
		Coalesced:     s.coalesced.Load(),
		JobsExecuted:  s.executed.Load(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Workers:       s.cfg.Workers,
		WorkersBusy:   int(s.busy.Load()),
		Jobs:          map[Status]int{},
	}
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if !started.IsZero() {
		st.UptimeMS = float64(time.Since(started)) / float64(time.Millisecond)
	}
	for _, j := range s.Jobs() {
		st.Jobs[j.Status()]++
	}
	return st
}

// Shutdown cancels the service context, interrupting in-flight runs
// (their jobs finish canceled), waits for the workers to exit, and
// cancels every job still queued. It is idempotent and safe to call
// from any number of goroutines: the first caller performs the
// shutdown, and every concurrent or later call blocks until that
// shutdown has completed (sync.Once semantics), so all callers return
// with the queue fully drained. Calling Shutdown before Start is a
// no-op that does not consume the shutdown.
func (s *Service) Shutdown() {
	s.mu.Lock()
	cancel := s.cancel
	s.mu.Unlock()
	if cancel == nil {
		return // never started; leave the Once for a post-Start call
	}
	s.stopOnce.Do(func() {
		cancel()
		s.wg.Wait()
		// Drain under the same lock Submit enqueues under (see Submit),
		// so no flight can slip into the queue after the drain.
		s.mu.Lock()
	drain:
		for {
			select {
			case fl := <-s.queue:
				if s.flights[fl.key] == fl {
					delete(s.flights, fl.key)
				}
				for _, job := range fl.complete() {
					job.finish(StatusCanceled, nil, ndjson{}, false, 0, "service shut down before the job ran")
				}
			default:
				break drain
			}
		}
		s.mu.Unlock()
		// Flush the persistent tiers' LRU indexes so recency — and the
		// blobs themselves — survive into the next process.
		s.results.Close()
		s.memo.Close()
	})
}

// retryAfterSeconds estimates how long a rejected client should wait
// before resubmitting (the Retry-After value on 429 responses): the
// time for the worker pool to drain the current queue, from the mean
// observed job duration. Before any job has finished it falls back to
// a 2-second guess. The estimate is clamped to [1, 60] seconds — long
// enough to be meaningful, short enough that clients re-probe a queue
// that drained faster than predicted. DESIGN.md §8 documents the
// client backoff contract.
func (s *Service) retryAfterSeconds() int {
	const fallback = 2
	h := s.jobDur.Snapshot()
	sec := fallback
	if h.Count > 0 {
		mean := float64(h.SumNS) / float64(h.Count) / float64(time.Second)
		sec = int(float64(len(s.queue)) * mean / float64(s.cfg.Workers))
	}
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// worker drains the queue until the service context is cancelled.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case fl := <-s.queue:
			s.runFlight(fl)
		}
	}
}

// unpublish removes fl from the live-flight table if it is still the
// published flight for its key (a later flight may have replaced it).
func (s *Service) unpublish(fl *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
}

// runFlight executes one flight through hgw.Run, stores the results
// and event rows under its content address as one blob, and finishes
// every member with slices of that blob.
func (s *Service) runFlight(fl *flight) {
	finishAll := func(status Status, results json.RawMessage, rows ndjson,
		elapsed time.Duration, errText string) {
		// Completion order matters: the caller stores the results, then
		// this seals the flight (attach starts refusing), unpublishes
		// it, releases its context and finishes the members. A
		// concurrent identical Submit either attached before the seal
		// (and is in members) or re-reads the cache after the refusal.
		members := fl.complete()
		s.unpublish(fl)
		fl.cancel()
		for _, j := range members {
			j.finish(status, results, rows, false, elapsed, errText)
		}
	}
	if s.ctx.Err() != nil {
		finishAll(StatusCanceled, nil, ndjson{}, 0, "service shut down before the job ran")
		return
	}
	if fl.ctx.Err() != nil {
		// Every member detached while the flight sat in the queue.
		finishAll(StatusCanceled, nil, ndjson{}, 0, "canceled by client")
		return
	}
	fl.markRunning()
	s.busy.Add(1)
	defer s.busy.Add(-1)
	s.executed.Add(1)
	opts := fl.spec.options()
	if fl.spec.Fleet > 0 {
		opts = append(opts, hgw.WithDeviceResults(fl.emit))
		// Fleet shards memoize across jobs: a re-run with one shard's
		// inputs changed re-simulates only that shard.
		opts = append(opts, hgw.WithShardMemo(s.memo))
	}
	start := time.Now()
	results, err := hgw.Run(fl.ctx, fl.spec.IDs, opts...)
	elapsed := time.Since(start)
	s.jobDur.Observe(elapsed)
	if err != nil {
		status := StatusFailed
		if fl.ctx.Err() != nil {
			status = StatusCanceled
		}
		finishAll(status, nil, ndjson{}, elapsed, err.Error())
		return
	}
	marshalled, err := json.Marshal(results)
	if err != nil {
		finishAll(StatusFailed, nil, ndjson{}, elapsed, "marshal results: "+err.Error())
		return
	}
	fl.mu.Lock()
	blob := encodeResult(marshalled, fl.rows)
	fl.mu.Unlock()
	s.results.Put(fl.key, blob)
	// The members end on slices of the stored blob, so the flight's
	// own row buffer is garbage once they finish.
	stored, rows, _ := decodeResult(blob)
	finishAll(StatusDone, stored, rows, elapsed, "")
}
