// Package sim provides a deterministic discrete-event simulator with
// virtual time and cooperatively scheduled processes.
//
// The simulator owns a virtual clock (nanosecond resolution, starting at
// zero) and a priority queue of events. Network elements (links, queues,
// NAT timers) schedule plain callback events with At or After. Active
// entities that are most naturally written as sequential code (probers,
// protocol clients) run as processes: coroutines that the scheduler
// switches into and that switch back when they park, so that exactly one
// of them — the scheduler or a single process — runs at any moment. A
// server that only receives and answers needs no process: it is the
// handler of a served channel (Chan.Serve), run in event callbacks. This
// gives race-free, fully reproducible runs: the same program always
// produces the same event ordering, and a simulated 24-hour experiment
// completes in milliseconds of wall time.
//
// Processes block only through the simulator's own primitives (Sleep,
// Chan.Recv, Join). Blocking on anything else would stall the scheduler.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/obs"
)

// Time is an absolute instant on the simulator's virtual clock, expressed
// as the duration since the start of the simulation.
type Time = time.Duration

// eventRec is one slab slot of the event queue. Slots are recycled
// through a free list; gen distinguishes the current occupant from
// stale Event handles that still point at the slot. (at, seq) is the
// key the event fires under; its heap entry carries the key it was
// pushed under, which is older when Reschedule moved the event since.
type eventRec struct {
	fn       func()
	h        Handler // fired instead of fn when non-nil
	at       Time
	seq      uint64
	gen      uint32
	canceled bool
}

// A Handler is an event target fired through a method rather than a
// closure, so a long-lived object (a NAT binding) can be its own timer
// callback without allocating one.
type Handler interface {
	Fire()
}

// Event is a handle to a scheduled callback that can be canceled. The
// zero value is an invalid handle on which Cancel is a no-op and
// Reschedule reports false. Handles stay valid (as no-ops)
// after the event fires: slab slots are recycled under a generation
// counter, so a stale handle can never cancel an unrelated later event.
type Event struct {
	s   *Sim
	idx int32
	gen uint32
}

// Cancel prevents the event's callback from running. Canceling an event
// that already fired (or was already canceled) is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.s == nil {
		return
	}
	rec := &e.s.slab[e.idx]
	if rec.gen != e.gen {
		return // already fired and recycled
	}
	if rec.canceled {
		return
	}
	rec.canceled = true
	rec.fn, rec.h = nil, nil // release the callback now; the slot drains lazily
	e.s.dead++
	e.s.obs.Inc(obs.CSimEventsCanceled)
	e.s.maybeCompact()
}

// Reschedule moves a pending event to the later time t (times in the
// past are clamped to the current time) and reports whether it did. The
// event then fires exactly where Cancel followed by At(t) of the same
// callback would fire it: it takes the next sequence number, and it
// counts as one canceled plus one scheduled event. Only the queue's
// representation differs: the record takes the new key in place and
// its heap entry stays where it is, so no canceled record is left
// behind and neither heap is touched; Run re-pushes the entry under the
// record's key when the old key surfaces. Moving an event earlier, or
// one that already fired or was canceled, returns false and changes
// nothing; the caller falls back to Cancel and At.
func (e *Event) Reschedule(t Time) bool {
	if e == nil || e.s == nil {
		return false
	}
	s := e.s
	rec := &s.slab[e.idx]
	if rec.gen != e.gen || rec.canceled {
		return false
	}
	if t < s.now {
		t = s.now
	}
	if t < rec.at {
		return false
	}
	s.seq++
	rec.at, rec.seq = t, s.seq
	s.obs.Inc(obs.CSimEventsCanceled)
	s.obs.Inc(obs.CSimEventsScheduled)
	return true
}

// Sim is a discrete-event simulator instance. The zero value is not
// usable; create one with New.
type Sim struct {
	now         Time
	seq         uint64
	slab        []eventRec // event records, indexed by heap entries
	free        []int32    // recycled slab slots
	near        eventHeap  // events due within nearHorizon when scheduled
	far         eventHeap  // every later event: the long timers
	dead        int        // canceled records still occupying heap entries
	rng         *rand.Rand
	running     bool
	interrupt   func() bool // polled between events; true aborts the run
	interrupted bool
	killing     bool      // Shutdown in progress: parked processes die on wake
	all         []*Proc   // every spawned process, for Shutdown
	idle        []*worker // workers whose process exited, for reuse
	// obs is the telemetry registry this simulator writes (nil = no
	// telemetry; every write is a nil-safe no-op). The simulator only
	// ever writes it — reading telemetry back into scheduling would
	// break the equal-seed contract, and obslint forbids it.
	obs *obs.Registry
	// pool is the domain's packet free lists (DESIGN.md §9): every
	// layer on this simulator draws and recycles its buffers, frames
	// and packet records here.
	pool netpkt.Pool
}

// New returns a simulator whose random source is seeded with seed.
// The same seed always yields the same simulation trajectory.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// SetObs installs the telemetry registry the simulator (and the layers
// it drives: the NAT engines reach it through Obs) writes event
// counters into. Install it at construction time, before any events
// are scheduled; nil disables telemetry (the default).
func (s *Sim) SetObs(r *obs.Registry) { s.obs = r }

// Obs returns the simulator's telemetry registry (nil when telemetry
// is off). Layers sharing the simulator use it as their write handle;
// the registry's write API is nil-safe, so callers never check.
func (s *Sim) Obs() *obs.Registry { return s.obs }

// Pool returns the simulator's packet pool. Only code running in the
// simulator's domain (its event callbacks and processes, or the
// goroutine that builds it before Run) may use it.
func (s *Sim) Pool() *netpkt.Pool { return &s.pool }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// After schedules fn to run after delay d (non-negative) and returns a
// cancelable handle.
func (s *Sim) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// At schedules fn to run at absolute virtual time t. Times in the past
// are clamped to the current time. Scheduling is allocation-free in
// steady state: records live in a slab recycled through a free list,
// and the returned Event is a value handle.
func (s *Sim) At(t Time, fn func()) Event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slab) == cap(s.slab) {
			s.slab = grow(s.slab)
		}
		s.slab = append(s.slab, eventRec{gen: 1})
		idx = int32(len(s.slab) - 1)
		s.obs.GaugeSet(obs.GSimSlabSlots, int64(len(s.slab)))
	}
	rec := &s.slab[idx]
	rec.fn, rec.at, rec.seq, rec.canceled = fn, t, s.seq, false
	e := entry{at: t, seq: s.seq, idx: idx}
	if t-s.now < nearHorizon {
		s.near.reserve()
		s.near.push(e)
	} else {
		s.far.reserve()
		s.far.push(e)
	}
	s.obs.Inc(obs.CSimEventsScheduled)
	return Event{s: s, idx: idx, gen: rec.gen}
}

// AtHandler is At for a Handler: h.Fire runs at time t. It wraps At
// instead of sharing a deeper helper with it: processes schedule their
// wakes through At, and one more frame there tips the coroutine stacks
// of a fleet shard's probe processes over a growth step.
func (s *Sim) AtHandler(t Time, h Handler) Event {
	e := s.At(t, nil)
	s.slab[e.idx].h = h
	return e
}

// grow returns a copy of q with twice its capacity. append alone grows
// large slices by ~1.25×, which for a slab or heap that only ever grows
// allocates and copies several times its final size. It stays out of
// line so that At's stack frame does not grow with it.
//
//go:noinline
func grow[T any](q []T) []T {
	n := make([]T, len(q), max(2*cap(q), 8))
	copy(n, q)
	return n
}

// recycle returns a slab slot to the free list. Bumping gen invalidates
// every outstanding Event handle to the slot.
func (s *Sim) recycle(idx int32) {
	rec := &s.slab[idx]
	rec.fn, rec.h = nil, nil
	rec.gen++
	s.free = append(s.free, idx)
}

// nearHorizon splits the event queue into two tiers. An event due
// less than nearHorizon after the moment it is scheduled — a link,
// switch or forwarding-queue hop, a process wake — goes to the near
// heap; everything later — NAT binding expiry, TCP and probe timeouts
// — goes to the far heap. Thousands of parked timers then no longer
// deepen the heap that every packet event sifts through. The split
// never changes the fire order: Run always takes the smaller of the two
// roots under the one (at, seq) key, so the pop sequence is exactly the
// one a single heap would produce.
const nearHorizon = 100 * time.Millisecond

// entry is one heap entry: a slab index beside its record's key, so
// that heap comparisons read only the heap's own contiguous memory.
// After a Reschedule the entry's key is older than the record's until
// Run re-pushes it.
type entry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	idx int32
}

// before orders entries by (at, seq).
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of entries keyed by (at, seq).
type eventHeap []entry

// reserve makes room for one push, doubling the heap when it is full
// (see grow). Callers reserve before each push; push itself stays
// small enough to inline.
func (h *eventHeap) reserve() {
	if len(*h) == cap(*h) {
		*h = grow(*h)
	}
}

func (h *eventHeap) push(e entry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes the root entry.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	if n > 1 {
		h.siftDown(0)
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// compact recycles the heap's canceled records and restores the heap
// property over the survivors.
func (h *eventHeap) compact(s *Sim) {
	kept := (*h)[:0]
	for _, e := range *h {
		if s.slab[e.idx].canceled {
			s.recycle(e.idx)
		} else {
			kept = append(kept, e)
		}
	}
	*h = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.siftDown(i)
	}
}

// queued returns the number of heap entries, canceled ones included.
func (s *Sim) queued() int { return len(s.near) + len(s.far) }

// first returns the heap whose root is the earliest queued record
// (canceled or not). The queue must be non-empty.
func (s *Sim) first() *eventHeap {
	if len(s.far) == 0 || len(s.near) > 0 && s.near[0].before(s.far[0]) {
		return &s.near
	}
	return &s.far
}

// maybeCompact drains canceled records eagerly once they dominate the
// heap, so a cancel-heavy workload (NAT timer refreshes) cannot keep
// the queue arbitrarily larger than its live population.
func (s *Sim) maybeCompact() {
	if s.dead < 64 || s.dead*2 <= s.queued() {
		return
	}
	s.obs.Inc(obs.CSimCompactions)
	s.obs.Trace(obs.TraceCompaction, s.now, uint32(s.dead))
	s.near.compact(s)
	s.far.compact(s)
	s.dead = 0
}

// interruptPollInterval bounds how many events Run executes between
// interrupt polls. The poll closure typically checks wall-clock state
// (a context), so polling per event would dominate small event
// callbacks; every 1024 events keeps the overhead unmeasurable while
// still aborting within microseconds of wall time.
const interruptPollInterval = 1024

// SetInterrupt installs fn, polled between events while Run executes:
// when it returns true the run aborts and Interrupted reports true
// until the next SetInterrupt call. A nil fn clears the interrupt.
// Drivers use it to abandon a simulation from wall-clock context (e.g.
// context cancellation) without waiting for the event queue to drain.
// An interrupted simulation is mid-flight — processes are parked and
// events are pending — so its state must be discarded, not resumed.
// SetInterrupt must be called from the goroutine that calls Run.
func (s *Sim) SetInterrupt(fn func() bool) {
	s.interrupt = fn
	s.interrupted = false
}

// Interrupted reports whether the last Run aborted because the
// installed interrupt fired.
func (s *Sim) Interrupted() bool { return s.interrupted }

// Run executes events in timestamp order until no events remain, the
// horizon (if positive) is reached, or the installed interrupt fires.
// It returns the virtual time at which the simulation ended.
//
// When the event queue drains while processes are still parked, the
// simulation simply ends: the processes are blocked forever, and
// Shutdown unwinds them.
func (s *Sim) Run(horizon time.Duration) Time {
	if s.running {
		panic("sim: Run called reentrantly")
	}
	s.running = true
	defer func() {
		s.running = false
		s.pool.Flush()
	}()
	sincePoll := 0
	for s.queued() > 0 {
		if s.interrupt != nil {
			if sincePoll++; sincePoll >= interruptPollInterval {
				sincePoll = 0
				if s.interrupt() {
					s.interrupted = true
					return s.now
				}
			}
		}
		h := s.first()
		top := (*h)[0]
		rec := &s.slab[top.idx]
		if rec.canceled {
			h.pop()
			s.dead--
			s.recycle(top.idx)
			continue
		}
		if top.seq != rec.seq {
			// Rescheduled since it was pushed: queue it under its
			// current key. Its old key was smaller, so every event that
			// fires before the new key still does.
			h.pop()
			e := entry{at: rec.at, seq: rec.seq, idx: top.idx}
			if e.at-s.now < nearHorizon {
				s.near.reserve()
				s.near.push(e)
			} else {
				s.far.reserve()
				s.far.push(e)
			}
			continue
		}
		if horizon > 0 && top.at > horizon {
			// Leave it queued for a potential later Run call.
			s.now = horizon
			return s.now
		}
		fn, hd := rec.fn, rec.h
		h.pop()
		s.recycle(top.idx)
		s.now = top.at
		s.obs.Inc(obs.CSimEventsFired)
		if hd != nil {
			hd.Fire()
		} else {
			fn()
		}
	}
	return s.now
}

// A Proc is a cooperatively scheduled simulator process. All methods
// must be called from the process's own body.
type Proc struct {
	s    *Sim
	name string
	fn   func(p *Proc)
	// w is the coroutine running the process: set by the start event,
	// cleared when the body returns and w goes back to the idle list.
	w       *worker
	started bool // the spawn event fired: a worker owns this process
	exited  bool
	joiners []*Proc
	// wakeArmed guards against double wake-ups: each park consumes
	// exactly one wake.
	wakeArmed bool
	// handoffFn/wakeFn cache the method values scheduled on every wake
	// and sleep, so the per-event closure allocation happens once per
	// process instead of once per park.
	handoffFn func()
	wakeFn    func()
}

// worker is a coroutine (iter.Pull) that runs process bodies one after
// another. Switching into it (next) and out of it (yield) is a direct
// goroutine switch with no trip through the Go scheduler. A worker
// whose process exits parks on the simulator's idle list and runs the
// next spawned process, so a coroutine is created only when every
// existing one is busy.
type worker struct {
	s     *Sim
	p     *Proc // the process being run; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Sim returns the simulator the process belongs to.
func (p *Proc) Sim() *Sim { return p.s }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Spawn starts fn as a new simulator process at the current virtual
// time. fn begins executing when the scheduler reaches the start event.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, fn: fn}
	p.handoffFn = p.handoff
	p.wakeFn = p.scheduleWake
	s.obs.Inc(obs.CSimProcsSpawned)
	s.all = append(s.all, p)
	s.At(s.now, p.handoffFn)
	return p
}

// worker returns an idle worker, or a new one when none is idle.
func (s *Sim) worker() *worker {
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return w
	}
	w := &worker{s: s}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// loop is the worker coroutine's body: run the bound process to exit,
// then go idle until the next spawn binds another one. yield returns
// false once Shutdown has stopped the worker.
//
// A panic in a process body is not recovered here: iter.Pull carries it
// out of next, so it surfaces from Run in the caller's goroutine, and
// the worker dies with it.
func (w *worker) loop(yield func(struct{}) bool) {
	// The gauge brackets the coroutine's whole life; Down runs before
	// the final switch back, so the count is at baseline by the time
	// Run or Shutdown returns (the goroutine-leak tripwire test depends
	// on that ordering).
	obs.Proc.SimProcUp()
	defer obs.Proc.SimProcDown()
	w.yield = yield
	for {
		p := w.p
		runProc(p.fn, p)
		p.exit()
		w.p = nil
		w.s.idle = append(w.s.idle, w)
		if !yield(struct{}{}) {
			return
		}
	}
}

// exit does a returned (or killed) process's bookkeeping and wakes its
// joiners.
func (p *Proc) exit() {
	p.exited = true
	p.fn, p.w = nil, nil
	for _, j := range p.joiners {
		j.scheduleWake()
	}
	p.joiners = nil
}

// procKilled is the panic sentinel Shutdown throws through a parked
// process to unwind it.
type procKilled struct{}

// runProc runs the process body, absorbing the Shutdown kill panic so
// the worker's exit bookkeeping still runs. Any other panic passes on.
func runProc(fn func(p *Proc), p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
	}()
	fn(p)
}

// Shutdown unwinds every live process and stops every worker coroutine.
// A simulation that ends with processes still parked — a process that
// waits for an answer that never comes parks forever, and an
// interrupted or horizon-bounded run parks everything mid-flight —
// leaves their coroutines suspended, and so
// does every idle worker. The Go runtime does not collect a suspended
// coroutine, so each would pin its stack and everything reachable from
// it (transitively, the whole simulation) for the life of the program.
// Callers that drop a simulator MUST call Shutdown first; ephemeral
// fleet shards are the high-volume case.
//
// Shutdown stops each parked process's coroutine, which makes its park
// panic with a sentinel that unwinds the body (deferred cleanup runs
// normally), in spawn order; then it stops the idle workers and, with
// nothing left to recycle a packet, releases the domain's pool to the
// shared depot. The simulator must not be resumed afterwards. Calling
// Shutdown again, on a fully exited simulation, or after Run
// re-panicked a process's panic, is safe.
func (s *Sim) Shutdown() {
	if s.running {
		panic("sim: Shutdown called during Run")
	}
	s.killing = true
	for _, p := range s.all {
		// Never-started processes have no worker: their spawn event
		// never fired. A worker whose process panicked is already
		// dead, and stopping it is a no-op.
		if p.w != nil {
			p.w.stop()
		}
	}
	for _, w := range s.idle {
		w.stop()
	}
	s.all, s.idle = nil, nil
	s.pool.Release()
}

// handoff transfers control to the process and returns once it parks
// again or exits. Its first call, the spawn event, binds the process to
// a worker. It must run in scheduler (event callback) context.
func (p *Proc) handoff() {
	if !p.started {
		p.started = true
		p.w = p.s.worker()
		p.w.p = p
	}
	p.w.next()
}

// park yields control back to the scheduler until the process is woken.
// Exactly one wake must be armed (scheduled) per park.
func (p *Proc) park() {
	if p.s.killing {
		// Refuses re-parking from deferred cleanup while this process
		// is being unwound by Shutdown; the worker is already stopped.
		panic(procKilled{})
	}
	p.wakeArmed = true
	ok := p.w.yield(struct{}{})
	if !ok {
		// Shutdown stopped the worker.
		panic(procKilled{})
	}
}

// scheduleWake arranges for the process to resume at the current virtual
// time. It is safe to call from scheduler or process context; the actual
// handoff happens in a fresh event. Calling it when no park is armed is
// a no-op (the waker lost a race that was already resolved).
func (p *Proc) scheduleWake() {
	if !p.wakeArmed || p.exited || p.s.killing {
		return
	}
	p.wakeArmed = false
	p.s.At(p.s.now, p.handoffFn)
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Yield: reschedule after already-queued events at this instant.
		p.s.At(p.s.now, p.wakeFn)
		p.park()
		return
	}
	p.s.After(d, p.wakeFn)
	p.park()
}

// Join blocks until q exits. Joining an already-exited process returns
// immediately.
func (p *Proc) Join(q *Proc) {
	if q.exited {
		return
	}
	q.joiners = append(q.joiners, p)
	p.park()
}

// Exited reports whether the process function has returned.
func (p *Proc) Exited() bool { return p.exited }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
