package service

import "time"

// HoldAfterEnqueue makes each Submit that schedules a new flight wait,
// once the flight is in the queue, until a worker has run and sealed
// it (or d has passed), so a test can force a worker to finish a flight
// before Submit returns.
func HoldAfterEnqueue(s *Service, d time.Duration) {
	s.enqueued = func(fl *flight) {
		for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			fl.mu.Lock()
			done := fl.done
			fl.mu.Unlock()
			if done {
				return
			}
		}
	}
}
