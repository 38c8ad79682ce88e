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

// refEvent is one entry of the reference queue.
type refEvent struct {
	at       Time
	seq      uint64
	id       int
	child    time.Duration // >= 0: firing schedules a child this much later
	canceled bool
}

// refQueue is the test-only reference for the event queue: one list
// kept sorted by (at, seq), with lazy cancellation and compaction
// modeled exactly as a single binary heap performs them (a canceled
// entry leaves when it reaches the front, or when canceled entries
// dominate the queue), so its fire order and compaction count are what
// the queue must reproduce.
type refQueue struct {
	now         Time
	seq         uint64
	list        []*refEvent
	dead        int
	compactions int
	fired       []int
}

func (r *refQueue) schedule(d time.Duration, id int, child time.Duration) *refEvent {
	r.seq++
	e := &refEvent{at: r.now + d, seq: r.seq, id: id, child: child}
	i, _ := slices.BinarySearchFunc(r.list, e, func(a, b *refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	r.list = slices.Insert(r.list, i, e)
	return e
}

func (r *refQueue) cancel(e *refEvent) {
	if e.canceled || !slices.Contains(r.list, e) {
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
		if e.at > horizon {
			r.now = horizon
			return
		}
		r.list = r.list[1:]
		r.now = e.at
		r.fired = append(r.fired, e.id)
		if e.child >= 0 {
			r.schedule(e.child, -e.id, -1)
		}
	}
}

// FuzzEventOrder decodes schedule, cancel and run-until operations from
// bytes and checks that the two-tier queue fires exactly the (at, seq)
// sequence of the sorted-list reference, with the same clock, pending
// count and compaction count after every operation.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 6, 0, 5, 2, 1, 0, 5, 0, 7, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New(1)
		reg := obs.NewRegistry()
		s.SetObs(reg)
		ref := &refQueue{}
		var fired []int
		var events []Event
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
			refs = append(refs, ref.schedule(d, id, child))
		}
		for len(ops) >= 2 {
			op, arg := ops[0], int(ops[1])
			ops = ops[2:]
			d := orderDelays[arg%len(orderDelays)]
			switch op % 6 {
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
			}
			if s.Now() != ref.now || s.Pending() != ref.live() {
				t.Fatalf("after op %d: now %v pending %d, reference now %v pending %d",
					op%6, s.Now(), s.Pending(), ref.now, ref.live())
			}
		}
		s.Run(0)
		ref.run(1<<63 - 1)
		if !slices.Equal(fired, ref.fired) {
			t.Fatalf("fire order differs from the reference:\n got %v\nwant %v", fired, ref.fired)
		}
		if got := reg.Snapshot().Counters[obs.CSimCompactions]; got != uint64(ref.compactions) {
			t.Fatalf("compactions = %d, reference %d", got, ref.compactions)
		}
	})
}
