package sim

import (
	"slices"
	"testing"
	"time"

	"hgw/internal/obs"
)

// orderDelays is the delay alphabet of FuzzEventOrder: zero, µs-scale
// link hops, the values around nearHorizon that decide an event's tier,
// and long timers.
var orderDelays = [...]time.Duration{
	0,
	1,
	time.Microsecond,
	50 * time.Microsecond,
	3 * time.Millisecond,
	nearHorizon - 1,
	nearHorizon,
	nearHorizon + 1,
	2 * time.Second,
	30 * time.Second,
	180 * time.Second,
	time.Hour,
}

// refEvent is one event of the reference queue. (at, seq) is the key
// it fires under; (pat, pseq) is where its one queue entry sits, which
// is an older key after a reschedule until the entry surfaces.
type refEvent struct {
	at       Time
	seq      uint64
	pat      Time
	pseq     uint64
	id       int
	child    time.Duration // >= 0: firing schedules a child this much later
	canceled bool
	fired    bool
}

// refQueue is the test-only reference for the event queue: one list
// kept sorted by entry position, with lazy cancellation and compaction
// modeled exactly as a single binary heap performs them (a canceled
// entry leaves when it reaches the front, or when canceled entries
// dominate the queue), so its fire order and compaction count are what
// the queue must reproduce. A reschedule gives the event the key that
// Cancel followed by At of the same callback would give it, without a
// canceled entry: its entry moves to the new key when it reaches the
// front. run checks that events fire in strictly increasing key order,
// which is the Cancel + At order.
type refQueue struct {
	now         Time
	seq         uint64
	list        []*refEvent
	dead        int
	compactions int
	fired       []int
	last        *refEvent // the most recently fired event
	misordered  bool
}

func (r *refQueue) schedule(d time.Duration, id int, child time.Duration) *refEvent {
	r.seq++
	e := &refEvent{at: r.now + d, seq: r.seq, id: id, child: child}
	r.insert(e)
	return e
}

// insert queues e's entry under e's current key.
func (r *refQueue) insert(e *refEvent) {
	e.pat, e.pseq = e.at, e.seq
	i, _ := slices.BinarySearchFunc(r.list, e, func(a, b *refEvent) int {
		if a.pat != b.pat {
			return int(a.pat - b.pat)
		}
		return int(a.pseq) - int(b.pseq)
	})
	r.list = slices.Insert(r.list, i, e)
}

func (r *refQueue) cancel(e *refEvent) {
	if e.canceled || e.fired {
		return
	}
	e.canceled = true
	r.dead++
	if r.dead >= 64 && r.dead*2 > len(r.list) {
		r.compactions++
		r.list = slices.DeleteFunc(r.list, func(e *refEvent) bool { return e.canceled })
		r.dead = 0
	}
}

// reschedule mirrors Event.Reschedule(now + d).
func (r *refQueue) reschedule(e *refEvent, d time.Duration) bool {
	if e.canceled || e.fired || r.now+d < e.at {
		return false
	}
	r.seq++
	e.at, e.seq = r.now+d, r.seq
	return true
}

func (r *refQueue) live() int { return len(r.list) - r.dead }

// run mirrors Sim.Run(horizon) with horizon > 0.
func (r *refQueue) run(horizon Time) {
	for len(r.list) > 0 {
		e := r.list[0]
		if e.canceled {
			r.list = r.list[1:]
			r.dead--
			continue
		}
		if e.pseq != e.seq {
			r.list = r.list[1:]
			r.insert(e)
			continue
		}
		if e.at > horizon {
			r.now = horizon
			return
		}
		r.list = r.list[1:]
		r.now = e.at
		e.fired = true
		if l := r.last; l != nil && (e.at < l.at || e.at == l.at && e.seq <= l.seq) {
			r.misordered = true
		}
		r.last = e
		r.fired = append(r.fired, e.id)
		if e.child >= 0 {
			r.schedule(e.child, -e.id, -1)
		}
	}
}

// FuzzEventOrder decodes schedule, cancel, reschedule and run-until
// operations from bytes and checks that the two-tier queue fires
// exactly the (at, seq) sequence of the sorted-list reference, with the
// same clock, pending count and compaction count after every operation.
// A reschedule that the queue refuses (an earlier time, a fired or a
// canceled event) falls back to Cancel and At of the same callback, as
// the NAT engine does.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 6, 0, 5, 2, 1, 0, 5, 0, 7, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New(1)
		reg := obs.NewRegistry()
		s.SetObs(reg)
		ref := &refQueue{}
		var fired []int
		var events []Event
		var fns []func()
		var refs []*refEvent
		schedule := func(d, child time.Duration) {
			id := len(events) + 1
			fn := func() { fired = append(fired, id) }
			if child >= 0 {
				fn = func() {
					fired = append(fired, id)
					s.After(child, func() { fired = append(fired, -id) })
				}
			}
			events = append(events, s.After(d, fn))
			fns = append(fns, fn)
			refs = append(refs, ref.schedule(d, id, child))
		}
		for len(ops) >= 2 {
			op, arg := ops[0], int(ops[1])
			ops = ops[2:]
			d := orderDelays[arg%len(orderDelays)]
			switch op % 7 {
			case 0: // schedule
				schedule(d, -1)
			case 1: // cancel one event, fired or not
				if len(events) > 0 {
					j := arg % len(events)
					events[j].Cancel()
					ref.cancel(refs[j])
				}
			case 2: // run until d (plus 1 ns, so the horizon is set) from now
				h := s.Now() + d + 1
				s.Run(h)
				ref.run(h)
			case 3: // schedule an event that schedules a child when it fires
				schedule(d, orderDelays[arg/len(orderDelays)%len(orderDelays)])
			case 4: // schedule a burst of 32 timers
				for k := 0; k < 32; k++ {
					schedule(d+time.Duration(k), -1)
				}
			case 5: // cancel the 32 newest events
				for j := max(0, len(events)-32); j < len(events); j++ {
					events[j].Cancel()
					ref.cancel(refs[j])
				}
			case 6: // move one of the newer events to d from now
				if len(events) == 0 {
					break
				}
				j := len(events) - 1 - arg/len(orderDelays)%len(events)
				moved := events[j].Reschedule(s.Now() + d)
				if moved != ref.reschedule(refs[j], d) {
					t.Fatalf("Reschedule of event %d to now+%v returned %v, reference %v", j+1, d, moved, !moved)
				}
				if !moved {
					events[j].Cancel()
					ref.cancel(refs[j])
					events[j] = s.At(s.Now()+d, fns[j])
					refs[j] = ref.schedule(d, refs[j].id, refs[j].child)
				}
			}
			if n := pending(reg); s.Now() != ref.now || n != ref.live() {
				t.Fatalf("after op %d: now %v pending %d, reference now %v pending %d",
					op%7, s.Now(), n, ref.now, ref.live())
			}
			if got := reg.Snapshot().Counters[obs.CSimCompactions]; got != uint64(ref.compactions) {
				t.Fatalf("after op %d: compactions = %d, reference %d", op%7, got, ref.compactions)
			}
		}
		s.Run(0)
		ref.run(1<<63 - 1)
		if !slices.Equal(fired, ref.fired) {
			t.Fatalf("fire order differs from the reference:\n got %v\nwant %v", fired, ref.fired)
		}
		if ref.misordered {
			t.Fatal("the reference fired out of (at, seq) order")
		}
		if got := reg.Snapshot().Counters[obs.CSimCompactions]; got != uint64(ref.compactions) {
			t.Fatalf("compactions = %d, reference %d", got, ref.compactions)
		}
	})
}
