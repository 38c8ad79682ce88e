package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEventChurn is the simulator's hot loop in isolation: schedule
// a batch of events, fire them all, repeat. Every packet hop in the
// testbed is a handful of these operations, so allocs/op here multiply
// into every figure regeneration.
func BenchmarkEventChurn(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			s.After(time.Duration(j)*time.Microsecond, fn)
		}
		s.Run(0)
	}
}

// BenchmarkScheduleCancel measures the schedule-then-cancel pattern of
// NAT binding timers and TCP retransmission timers: most armed timers
// never fire because traffic refreshes them first.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			ev := s.After(time.Duration(j+1)*time.Second, fn)
			ev.Cancel()
		}
		// Drain the canceled records so the queue stays in steady state.
		s.Run(0)
	}
}

// BenchmarkTimerRefresh is the worst-case NAT pattern: a long-lived
// binding whose timer is re-armed (cancel + schedule) on every packet
// while other events fire around it.
func BenchmarkTimerRefresh(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timer := s.After(time.Hour, fn)
		for j := 0; j < 32; j++ {
			s.After(time.Duration(j)*time.Microsecond, fn)
			timer.Cancel()
			timer = s.After(time.Hour, fn)
		}
		timer.Cancel()
		s.Run(0)
	}
}

// BenchmarkEventChurnWithTimers is BenchmarkEventChurn with 0, 1 k and
// 64 k long timers parked in the queue, the way live NAT bindings park
// their expiry events while packets flow. The short events must cost
// the same whatever the number of parked timers.
func BenchmarkEventChurnWithTimers(b *testing.B) {
	for _, timers := range []int{0, 1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("timers=%d", timers), func(b *testing.B) {
			s := New(1)
			fn := func() {}
			for i := 0; i < timers; i++ {
				s.After(1000*time.Hour+time.Duration(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 64; j++ {
					s.After(time.Duration(j)*time.Microsecond, fn)
				}
				s.Run(s.Now() + time.Millisecond)
			}
		})
	}
}

// BenchmarkProcSwitch is one Sleep round trip of a process: schedule
// the wake, switch out to the scheduler, fire the wake event and switch
// back in. Every probe timeout, every blocking socket read and every
// paced send pays it.
func BenchmarkProcSwitch(b *testing.B) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	s.Run(s.Now() + time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + time.Microsecond)
	}
	b.StopTimer()
	s.Shutdown()
}

// BenchmarkSpawnExit is the life of a short process: spawn, one Sleep,
// exit. Once the first process has exited, every later one runs on its
// recycled worker.
func BenchmarkSpawnExit(b *testing.B) {
	s := New(1)
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Spawn("short", body)
		s.Run(0)
	}
	b.StopTimer()
	s.Shutdown()
}

// BenchmarkChanSendDrain is a socket that only counts its arrivals: one
// pointer-bearing value the size of a UDP datagram is queued and then
// dropped with Drain, as bindrate's server socket does before each of
// its sends. Its cost should not grow with the segment size.
func BenchmarkChanSendDrain(b *testing.B) {
	type datagram struct {
		data     []byte
		src, dst [3]uint64
		meta     [6]uint64
	}
	s := New(1)
	c := NewChan[datagram](s)
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(datagram{data: payload})
		c.Drain()
	}
}
