package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hgw/internal/obs"
)

// TestChanDrainLeavesNoValues: Drain clears only the head segment's
// live slots before keeping it as the spare, so the spare must still
// hold no values (nothing stays reachable through it), at every fill
// and read position around a segment boundary, and the channel must
// stay FIFO afterwards. The first value sent to an empty channel is
// held inline: it must be cleared too, and a channel that only ever
// held one value has no segment at all.
func TestChanDrainLeavesNoValues(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 200} {
		for _, read := range []int{0, 1, 63} {
			s := New(1)
			c := NewChan[*int](s)
			for i := 0; i < read+n; i++ {
				v := i
				c.Send(&v)
			}
			for i := 0; i < read; i++ {
				if v, ok := c.TryRecv(); !ok || *v != i {
					t.Fatalf("n=%d read=%d: read %d got %v, %v", n, read, i, v, ok)
				}
			}
			if got := c.Drain(); got != n {
				t.Fatalf("n=%d read=%d: Drain dropped %d values", n, read, got)
			}
			if c.buf.inline || c.buf.first != nil {
				t.Fatalf("n=%d read=%d: the inline slot still holds a value", n, read)
			}
			switch sp := c.buf.spare; {
			case read+n == 1:
				if sp != nil {
					t.Fatalf("n=%d read=%d: one value allocated a segment", n, read)
				}
			case sp == nil:
				t.Fatalf("n=%d read=%d: no spare segment kept", n, read)
			default:
				for j, v := range sp.vals {
					if v != nil {
						t.Errorf("n=%d read=%d: spare slot %d still holds %d", n, read, j, *v)
					}
				}
				if sp.next != nil {
					t.Errorf("n=%d read=%d: spare segment still links onward", n, read)
				}
			}
			for i := 0; i < 150; i++ {
				v := i
				c.Send(&v)
			}
			for i := 0; i < 150; i++ {
				if v, ok := c.TryRecv(); !ok || *v != i {
					t.Fatalf("n=%d read=%d: after Drain, read %d got %v, %v", n, read, i, v, ok)
				}
			}
			if c.Len() != 0 {
				t.Errorf("n=%d read=%d: %d values left", n, read, c.Len())
			}
		}
	}
}

// serveStep is one sender in a TestChanServeMatchesRecvLoop schedule.
type serveStep struct {
	at    time.Duration
	proc  bool // send from a process rather than an event callback
	yield bool // a process sender yields between its sends
	close bool // close the channel after sending
	vals  []int
}

// runServeSchedule runs steps against one channel, received either by
// a process looping on Recv(p, 0) or by a Serve handler, and returns
// the trace of every send and handling with its virtual time, and the
// events and processes the run counted. For some values the handler
// also schedules an event at the current instant, so its side effects
// are ordered against the senders too, or sends a value back into the
// channel, which it must handle before it goes idle.
func runServeSchedule(steps []serveStep, served bool) (trace []string, fired, spawned uint64) {
	s := New(1)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	c := NewChan[int](s)
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%v ", s.Now())+fmt.Sprintf(format, args...))
	}
	handle := func(v int) {
		logf("handle %d", v)
		if v%3 == 0 {
			s.At(s.Now(), func() { logf("echo %d", v) })
		}
		if v%4 == 1 && v < 1000 {
			logf("send %d", v+1000)
			c.Send(v + 1000)
		}
	}
	if served {
		c.Serve(handle)
	} else {
		s.Spawn("server", func(p *Proc) {
			for {
				v, ok := c.Recv(p, 0)
				if !ok {
					return
				}
				handle(v)
			}
		})
	}
	for _, st := range steps {
		send := func(p *Proc) {
			for _, v := range st.vals {
				logf("send %d", v)
				c.Send(v)
				if p != nil && st.yield {
					p.Sleep(0)
				}
			}
			if st.close {
				logf("close")
				c.Close()
			}
		}
		if st.proc {
			s.Spawn("sender", func(p *Proc) {
				p.Sleep(st.at)
				send(p)
			})
		} else {
			s.At(st.at, func() { send(nil) })
		}
	}
	s.Run(0)
	s.Shutdown()
	snap := reg.Snapshot()
	return trace, snap.Counters[obs.CSimEventsFired], snap.Counters[obs.CSimProcsSpawned]
}

// TestChanServeMatchesRecvLoop checks Serve against the process loop it
// replaces, on seeded random schedules: several sends at one instant,
// sends from events and from processes (some yielding between sends),
// and a close. Both must send and handle the same values in the same
// order at the same times, and the served run must fire exactly one
// event fewer, the loop's spawn event.
func TestChanServeMatchesRecvLoop(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var steps []serveStep
		next := 0
		closeAt := -1
		if rng.Intn(3) == 0 {
			closeAt = rng.Intn(8)
		}
		for i := 0; i < 1+rng.Intn(8); i++ {
			st := serveStep{
				at:    time.Duration(rng.Intn(4)) * time.Millisecond,
				proc:  rng.Intn(2) == 0,
				yield: rng.Intn(2) == 0,
				close: i == closeAt,
			}
			for j := 0; j < rng.Intn(4); j++ {
				st.vals = append(st.vals, next)
				next++
			}
			steps = append(steps, st)
		}
		loop, loopFired, loopProcs := runServeSchedule(steps, false)
		served, servedFired, servedProcs := runServeSchedule(steps, true)
		if !slices.Equal(loop, served) {
			t.Fatalf("seed %d: traces differ\nloop:   %q\nserved: %q", seed, loop, served)
		}
		if loopFired != servedFired+1 || loopProcs != servedProcs+1 {
			t.Fatalf("seed %d: loop fired %d events and spawned %d processes, served %d and %d; want one fewer of each",
				seed, loopFired, loopProcs, servedFired, servedProcs)
		}
	}
}
