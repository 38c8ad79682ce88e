package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hgw/internal/obs"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	end := s.Run(0)
	if end != 3*time.Second {
		t.Fatalf("end = %v, want 3s", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestEventTieFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.After(time.Second, func() { fired = true })
	ev.Cancel()
	s.Run(0)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestHorizon(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Second, func() { fired++ })
	s.After(time.Minute, func() { fired++ })
	end := s.Run(10 * time.Second)
	if fired != 1 || end != 10*time.Second {
		t.Fatalf("fired=%d end=%v", fired, end)
	}
	// Continuing past the horizon runs the rest.
	end = s.Run(0)
	if fired != 2 || end != time.Minute {
		t.Fatalf("fired=%d end=%v", fired, end)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var at []Time
	s.Spawn("sleeper", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(5 * time.Second)
		at = append(at, p.Now())
		p.Sleep(time.Second)
		at = append(at, p.Now())
	})
	s.Run(0)
	want := []Time{0, 5 * time.Second, 6 * time.Second}
	if len(at) != 3 || at[0] != want[0] || at[1] != want[1] || at[2] != want[2] {
		t.Fatalf("at = %v, want %v", at, want)
	}
}

func TestProcSleepZeroYields(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Sleep(0)
		order = append(order, "b2")
	})
	s.Run(0)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != "a1" || order[1] != "b1" {
		t.Fatalf("first phase order = %v", order)
	}
}

func TestJoin(t *testing.T) {
	s := New(1)
	var done Time = -1
	child := s.Spawn("child", func(p *Proc) { p.Sleep(7 * time.Second) })
	s.Spawn("parent", func(p *Proc) {
		p.Join(child)
		done = p.Now()
	})
	s.Run(0)
	if done != 7*time.Second {
		t.Fatalf("join completed at %v, want 7s", done)
	}
	if !child.Exited() {
		t.Fatal("child not exited")
	}
}

func TestJoinExited(t *testing.T) {
	s := New(1)
	child := s.Spawn("child", func(p *Proc) {})
	joined := false
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.Join(child) // already exited; must not hang
		joined = true
	})
	s.Run(0)
	if !joined {
		t.Fatal("join on exited process hung")
	}
}

func TestChanSendRecv(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var got []int
	var at []Time
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := c.Recv(p, 0)
			if !ok {
				t.Errorf("recv %d failed", i)
				return
			}
			got = append(got, v)
			at = append(at, p.Now())
		}
	})
	s.After(time.Second, func() { c.Send(10) })
	s.After(2*time.Second, func() { c.Send(20); c.Send(30) })
	s.Run(0)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got = %v", got)
	}
	if at[0] != time.Second || at[1] != 2*time.Second || at[2] != 2*time.Second {
		t.Fatalf("at = %v", at)
	}
}

func TestChanRecvTimeout(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var okFirst, okSecond bool
	var tEnd Time
	s.Spawn("recv", func(p *Proc) {
		_, okFirst = c.Recv(p, 3*time.Second)
		tEnd = p.Now()
		v, ok := c.Recv(p, 3*time.Second)
		okSecond = ok && v == 42
	})
	s.After(4*time.Second, func() { c.Send(42) })
	s.Run(0)
	if okFirst {
		t.Fatal("first recv should time out")
	}
	if tEnd != 3*time.Second {
		t.Fatalf("timeout at %v, want 3s", tEnd)
	}
	if !okSecond {
		t.Fatal("second recv should get 42")
	}
}

// TestChanTimedOutWaitersDropped checks that a Recv that times out
// leaves the waiter queue at once: on a channel that never receives
// again, timed-out receivers must not pile up (each would pin its
// process).
func TestChanTimedOutWaitersDropped(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	const n = 10000
	timeouts := 0
	s.Spawn("r", func(p *Proc) {
		for i := 0; i < n; i++ {
			if _, ok := c.Recv(p, time.Millisecond); !ok {
				timeouts++
			}
		}
	})
	s.Run(0)
	if timeouts != n {
		t.Fatalf("timeouts = %d, want %d", timeouts, n)
	}
	if q := c.waiters.Len(); q != 0 {
		t.Fatalf("%d timed-out waiters still queued", q)
	}
	if len(c.spare) > 1 {
		t.Fatalf("%d spare waiters kept for one receiver", len(c.spare))
	}
	// A late Send buffers the value instead of handing it to a dead
	// waiter.
	c.Send(7)
	if v, ok := c.TryRecv(); !ok || v != 7 {
		t.Fatalf("late send: got %d, %v", v, ok)
	}
}

// TestChanTimeoutKeepsFIFO times out the middle one of three waiting
// receivers and checks the other two still receive in arrival order.
func TestChanTimeoutKeepsFIFO(t *testing.T) {
	s := New(1)
	c := NewChan[string](s)
	got := map[string]string{}
	recv := func(name string, timeout time.Duration) {
		s.Spawn(name, func(p *Proc) {
			v, ok := c.Recv(p, timeout)
			if !ok {
				v = "timeout"
			}
			got[name] = v
		})
	}
	recv("a", 0)
	recv("b", time.Second)
	recv("c", 0)
	s.After(2*time.Second, func() { c.Send("x"); c.Send("y") })
	s.Run(0)
	if got["a"] != "x" || got["b"] != "timeout" || got["c"] != "y" {
		t.Fatalf("got %v", got)
	}
}

func TestChanBufferedBeforeRecv(t *testing.T) {
	s := New(1)
	c := NewChan[string](s)
	c.Send("early")
	var got string
	s.Spawn("recv", func(p *Proc) { got, _ = c.Recv(p, 0) })
	s.Run(0)
	if got != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestChanClose(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	okc := true
	s.Spawn("recv", func(p *Proc) { _, okc = c.Recv(p, 0) })
	s.After(time.Second, func() { c.Close() })
	s.Run(0)
	if okc {
		t.Fatal("recv on closed chan should return ok=false")
	}
	c.Send(1)
	if c.Len() != 0 {
		t.Fatal("send after close should drop")
	}
}

func TestChanTryRecvAndDrain(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan")
	}
	c.Send(1)
	c.Send(2)
	if v, ok := c.TryRecv(); !ok || v != 1 {
		t.Fatalf("TryRecv = %d,%v", v, ok)
	}
	if n := c.Drain(); n != 1 {
		t.Fatalf("Drain = %d", n)
	}
}

// TestStalledReported: a process waiting on a channel nobody sends on
// is still parked when the queue drains, and Run returns regardless.
func TestStalledReported(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	stuck := s.Spawn("stuck", func(p *Proc) { c.Recv(p, 0) })
	s.Run(0)
	if stuck.Exited() {
		t.Fatal("a process blocked on an empty channel exited")
	}
	s.Shutdown()
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		c := NewChan[int](s)
		var ts []Time
		for i := 0; i < 5; i++ {
			s.Spawn("p", func(p *Proc) {
				d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
				p.Sleep(d)
				c.Send(1)
			})
		}
		s.Spawn("recv", func(p *Proc) {
			for i := 0; i < 5; i++ {
				c.Recv(p, 0)
				ts = append(ts, p.Now())
			}
		})
		s.Run(0)
		return ts
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a, b)
		}
	}
}

func TestManyProcesses(t *testing.T) {
	s := New(1)
	const n = 200
	count := 0
	var procs []*Proc
	for i := 0; i < n; i++ {
		i := i
		procs = append(procs, s.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			count++
		}))
	}
	s.Run(0)
	if count != n {
		t.Fatalf("count = %d", count)
	}
	for i, p := range procs {
		if !p.Exited() {
			t.Fatalf("process %d still parked after Run", i)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := New(1)
	var childRan bool
	s.Spawn("parent", func(p *Proc) {
		child := s.Spawn("child", func(q *Proc) {
			q.Sleep(time.Second)
			childRan = true
		})
		p.Join(child)
		if !childRan {
			t.Error("join returned before child finished")
		}
	})
	s.Run(0)
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestPending(t *testing.T) {
	s, reg := observed(1)
	e1 := s.After(time.Second, func() {})
	s.After(2*time.Second, func() {})
	if n := pending(reg); n != 2 {
		t.Fatalf("pending = %d", n)
	}
	e1.Cancel()
	if n := pending(reg); n != 1 {
		t.Fatalf("pending after cancel = %d", n)
	}
}

// observed returns a simulator writing into a fresh registry.
func observed(seed int64) (*Sim, *obs.Registry) {
	s, reg := New(seed), obs.NewRegistry()
	s.SetObs(reg)
	return s, reg
}

// pending is the number of scheduled, uncanceled events as the
// registry counts them: scheduled − fired − canceled.
func pending(reg *obs.Registry) int {
	c := reg.Snapshot().Counters
	return int(c[obs.CSimEventsScheduled] - c[obs.CSimEventsFired] - c[obs.CSimEventsCanceled])
}

// settledGoroutines reads a goroutine-count baseline once the count
// stops moving, so goroutines an earlier test left finishing are not
// counted. (A worker coroutine is retired within the switch that ends
// it, so the simulator itself leaves none behind.)
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// countGoroutines samples runtime.NumGoroutine, giving the count a few
// beats to fall back to baseline.
func countGoroutines(baseline int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > baseline; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShutdownReleasesGoroutines parks processes forever and checks
// that Shutdown unwinds them, runs their deferred cleanup and returns
// the goroutine count to its baseline: with idle recycled workers
// beside the parked ones, and after Run re-panicked a process's panic.
func TestShutdownReleasesGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		idle  int  // short processes that exit before the run ends
		panic bool // one process panics mid-run
	}{
		{name: "parked"},
		{name: "parked_and_idle", idle: 10},
		{name: "after_panic", idle: 10, panic: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := settledGoroutines()
			gauge := obs.Proc.Snapshot().SimProcs
			s := New(1)
			const procs = 50
			cleaned := 0
			ch := NewChan[int](s)
			var servers []*Proc
			for i := 0; i < procs; i++ {
				servers = append(servers, s.Spawn("server", func(p *Proc) {
					defer func() { cleaned++ }()
					// Parks forever: nothing ever sends, like a probe
					// still waiting for a reply when its testbed is
					// abandoned.
					ch.Recv(p, 0)
				}))
			}
			// Short processes run beside the servers, so each needs a
			// worker of its own; all of them are idle once they exit.
			for i := 0; i < tc.idle; i++ {
				s.Spawn("short", func(p *Proc) { p.Sleep(time.Second) })
			}
			if tc.panic {
				s.Spawn("faulty", func(p *Proc) {
					p.Sleep(2 * time.Second)
					panic("boom")
				})
				if r := runRecover(s); r != "boom" {
					t.Fatalf("Run recovered %v, want boom", r)
				}
			} else {
				s.Run(0)
			}
			for i, p := range servers {
				if p.Exited() {
					t.Fatalf("server %d exited, want it parked", i)
				}
			}
			if len(s.idle) != tc.idle {
				t.Fatalf("idle workers = %d, want %d", len(s.idle), tc.idle)
			}
			if n := runtime.NumGoroutine(); n < baseline+procs+tc.idle {
				t.Fatalf("expected %d suspended coroutines resident, have %d over baseline", procs+tc.idle, n-baseline)
			}
			s.Shutdown()
			if n := countGoroutines(baseline); n > baseline {
				t.Errorf("goroutines after Shutdown = %d, baseline %d: parked processes leaked", n, baseline)
			}
			if got := obs.Proc.Snapshot().SimProcs; got != gauge {
				t.Errorf("sim proc gauge = %d after Shutdown, want baseline %d", got, gauge)
			}
			if cleaned != procs {
				t.Errorf("deferred cleanup ran in %d/%d killed processes", cleaned, procs)
			}
		})
	}
}

// runRecover runs s to completion and returns what Run panicked with.
func runRecover(s *Sim) (r any) {
	defer func() { r = recover() }()
	s.Run(0)
	return nil
}

// TestProcPanicSurfacesFromRun checks that a panic in a process body
// comes out of Run, in the goroutine that called it, with the value it
// was raised with; that the simulator is no longer running afterwards;
// and that Shutdown then unwinds the other parked processes.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	s := New(1)
	unwound := false
	s.Spawn("server", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(time.Hour)
	})
	var panicked *Proc
	panicked = s.Spawn("faulty", func(p *Proc) {
		p.Sleep(time.Second)
		panic(fmt.Errorf("probe: %s failed", p.name))
	})
	r := runRecover(s)
	err, ok := r.(error)
	if !ok || err.Error() != "probe: faulty failed" {
		t.Fatalf("Run panicked with %v, want the process's error", r)
	}
	if s.Now() != time.Second {
		t.Fatalf("Run stopped at %v, want 1s", s.Now())
	}
	if panicked.Exited() {
		t.Fatal("panicked process reports a normal exit")
	}
	s.Shutdown()
	if !unwound {
		t.Fatal("Shutdown did not unwind the parked server")
	}
	s.Shutdown()
}

// TestRecycledWorkerIgnoresStaleWake lets a process exit while its
// canceled receive timeout and its waker both outlive it, and runs a
// second process on the recycled worker: neither stale wake may resume
// the new process early.
func TestRecycledWorkerIgnoresStaleWake(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var first *worker
	p1 := s.Spawn("first", func(p *Proc) {
		first = p.w
		// Woken by the Send at 500 ms; the 1 s timeout is canceled.
		if _, ok := c.Recv(p, time.Second); !ok {
			t.Error("first process timed out")
		}
	})
	var woke []Time
	var second *worker
	var p2 *Proc
	s.After(600*time.Millisecond, func() {
		if !p1.Exited() {
			t.Error("first process still running at 600 ms")
		}
		p2 = s.Spawn("second", func(p *Proc) {
			second = p.w
			p.Sleep(10 * time.Second)
			woke = append(woke, p.Now())
			c.Recv(p, 0) // park for good
			woke = append(woke, p.Now())
		})
	})
	s.After(500*time.Millisecond, func() { c.Send(1) })
	// The first process's waker fires after it exited and while the
	// second one is parked on the same worker.
	s.After(700*time.Millisecond, p1.scheduleWake)
	s.After(time.Second+time.Millisecond, p1.wakeFn)
	s.Run(0)
	if first == nil || second != first {
		t.Fatalf("second process ran on worker %p, want the recycled %p", second, first)
	}
	if len(woke) != 1 || woke[0] != 10600*time.Millisecond {
		t.Fatalf("second process woke at %v, want only [10.6s]", woke)
	}
	if p2.Exited() {
		t.Fatal("second process exited, want it parked")
	}
	s.Shutdown()
}

// TestChanSegmentFIFO pushes backlogs across several segment
// boundaries and checks FIFO order through interleaved Send/Recv,
// receive timeouts between bursts, and Drain.
func TestChanSegmentFIFO(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	next := 0 // next value to send
	send := func(n int) {
		for i := 0; i < n; i++ {
			c.Send(next)
			next++
		}
	}
	var got []int
	timeouts := 0
	recv := func(p *Proc, n int) {
		for i := 0; i < n; i++ {
			v, ok := c.Recv(p, time.Millisecond)
			if !ok {
				timeouts++
				return
			}
			got = append(got, v)
		}
	}
	dropped := 0
	s.Spawn("recv", func(p *Proc) {
		send(3*segLen + 5)
		recv(p, segLen+1) // the head segment empties and becomes the spare
		send(2 * segLen)  // the tail grows into the spare, then past it
		recv(p, 4*segLen+4)
		recv(p, 1) // the queue is empty again: this times out
		for i := 0; i < 3*segLen; i++ {
			send(2) // interleaved, always one value behind
			recv(p, 1)
		}
		dropped = c.Drain()
		send(segLen + 1)
		recv(p, segLen+2) // the last one times out
	})
	s.Run(0)
	if timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2", timeouts)
	}
	if dropped != 3*segLen {
		t.Fatalf("Drain dropped %d, want %d", dropped, 3*segLen)
	}
	// Every value arrives in order, with one gap: the drained ones.
	want, gap := 0, false
	for i, v := range got {
		if v != want {
			if gap || v != want+dropped {
				t.Fatalf("got[%d] = %d, want %d", i, v, want)
			}
			gap, want = true, v
		}
		want++
	}
	if want != next || c.Len() != 0 {
		t.Fatalf("received up to %d of %d, %d left buffered", want, next, c.Len())
	}
}

func TestShutdownIdempotentAndCleanExit(t *testing.T) {
	baseline := settledGoroutines()
	s := New(1)
	ran := false
	s.Spawn("worker", func(p *Proc) {
		p.Sleep(time.Second)
		ran = true
	})
	s.Run(0)
	if !ran {
		t.Fatal("worker did not run")
	}
	// All processes exited on their own; Shutdown must be a no-op, and
	// calling it twice must be safe.
	s.Shutdown()
	s.Shutdown()
	if n := countGoroutines(baseline); n > baseline {
		t.Errorf("goroutines = %d, baseline %d", n, baseline)
	}
}

// TestShutdownReleasesPool checks the domain pool's life cycle: the
// pool's traffic reaches obs.Proc when Run returns and at Shutdown, and
// Shutdown hands the pool's lists to the shared depot only after every
// parked process has unwound, so a buffer that a process's deferred
// cleanup recycles is among what the next domain refills from.
func TestShutdownReleasesPool(t *testing.T) {
	s := New(1)
	var held *byte // the buffer's first byte
	s.Spawn("holder", func(p *Proc) {
		pool := p.Sim().Pool()
		b := pool.GetBuf(64)
		held = &b[:1][0]
		defer pool.PutBuf(b)
		NewChan[int](s).Recv(p, 0) // parks for good
	})
	before := obs.Proc.Snapshot()
	s.Run(0)
	if mid := obs.Proc.Snapshot(); mid.PoolGets-before.PoolGets != 1 || mid.PoolPuts != before.PoolPuts {
		t.Fatalf("pool gets, puts after Run = %d, %d; want 1, 0", mid.PoolGets-before.PoolGets, mid.PoolPuts-before.PoolPuts)
	}
	s.Shutdown()
	if got := obs.Proc.Snapshot().PoolPuts - before.PoolPuts; got != 1 {
		t.Fatalf("pool puts after Shutdown = %d, want 1 (the unwound process's)", got)
	}
	if b := New(2).Pool().GetBuf(64); &b[:1][0] != held {
		t.Fatal("the next domain did not refill from the buffer released at Shutdown")
	}
}

func TestShutdownInterruptedRun(t *testing.T) {
	baseline := settledGoroutines()
	s := New(1)
	for i := 0; i < 8; i++ {
		s.Spawn("ticker", func(p *Proc) {
			for {
				p.Sleep(time.Millisecond)
			}
		})
	}
	fired := 0
	s.SetInterrupt(func() bool { fired++; return fired > 2 })
	s.Run(0)
	if !s.Interrupted() {
		t.Fatal("run was not interrupted")
	}
	// Mid-flight state: every ticker is parked on a pending wake.
	s.Shutdown()
	if n := countGoroutines(baseline); n > baseline {
		t.Errorf("goroutines after Shutdown = %d, baseline %d", n, baseline)
	}
}

func TestShutdownSurvivesReparkingCleanup(t *testing.T) {
	baseline := settledGoroutines()
	s := New(1)
	s.Spawn("stubborn", func(p *Proc) {
		defer func() {
			// A cleanup that tries to block again mid-unwind must not
			// strand the goroutine (park refuses during Shutdown).
			defer func() { recover() }()
			p.Sleep(time.Hour)
		}()
		p.Sleep(time.Hour)
	})
	s.Run(time.Minute)
	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown deadlocked on re-parking cleanup")
	}
	if n := countGoroutines(baseline); n > baseline {
		t.Errorf("goroutines = %d, baseline %d", n, baseline)
	}
}
