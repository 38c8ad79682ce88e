package service_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hgw"
	"hgw/internal/service"
)

// udp3Spec is the small-but-real fleet job the cache tests submit: 24
// synthetic devices across 3 shards, one iteration, fixed seed.
var udp3Spec = service.Spec{
	IDs: []string{"udp3"}, Seed: 5, Iterations: 1, Fleet: 24, Shards: 3,
}

// waitDone fails the test unless the job reaches a terminal state
// within the deadline.
func waitDone(t *testing.T, job *service.Job, d time.Duration) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(d):
		t.Fatalf("job %s still %s after %v", job.ID, job.Status(), d)
	}
}

// waitStatus polls until the job reports status s.
func waitStatus(t *testing.T, job *service.Job, s service.Status, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for job.Status() != s {
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s after %v", job.ID, job.Status(), s, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitCachedRoundTrip is the determinism-based cache-correctness
// check at the service layer: the same spec submitted twice yields
// byte-identical results, the second served from cache.
func TestSubmitCachedRoundTrip(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()

	first, err := svc.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first, time.Minute)
	v1 := first.Snapshot()
	if v1.Status != service.StatusDone {
		t.Fatalf("first job %s: %s", v1.Status, v1.Error)
	}
	if v1.Cached {
		t.Error("first job claims a cache hit")
	}
	if len(v1.Results) == 0 {
		t.Fatal("first job has no results")
	}
	if v1.Devices != udp3Spec.Fleet {
		t.Errorf("first job buffered %d device rows, want %d", v1.Devices, udp3Spec.Fleet)
	}

	second, err := svc.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second, time.Second) // cache hits complete synchronously
	v2 := second.Snapshot()
	if v2.Status != service.StatusDone || !v2.Cached {
		t.Fatalf("second job status=%s cached=%v, want done from cache", v2.Status, v2.Cached)
	}
	if string(v2.Results) != string(v1.Results) {
		t.Error("cached results are not byte-identical to the first run")
	}
	if v2.Devices != udp3Spec.Fleet {
		t.Errorf("cached job replays %d device rows, want %d", v2.Devices, udp3Spec.Fleet)
	}

	st := svc.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.Entries != 1 {
		t.Errorf("cache holds %d entries, want 1", st.Cache.Entries)
	}
}

// TestSubmitAttachesBeforeEnqueue forces the interleaving in which a
// worker runs and seals a new flight before Submit, which sent it to
// the queue, returns. The job must already be a member of the flight
// then, and so reach done; a job that joined only after the send would
// be left queued forever.
func TestSubmitAttachesBeforeEnqueue(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	service.HoldAfterEnqueue(svc, time.Minute)
	svc.Start(context.Background())
	defer svc.Shutdown()

	job, err := svc.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 10*time.Second)
	if v := job.Snapshot(); v.Status != service.StatusDone || len(v.Results) == 0 {
		t.Fatalf("job %s: %s with %d result bytes, want done with results", v.Status, v.Error, len(v.Results))
	}
	if st := svc.Stats(); st.JobsExecuted != 1 {
		t.Fatalf("jobs executed = %d, want 1", st.JobsExecuted)
	}
}

func TestSubmitUnknownExperiment(t *testing.T) {
	svc := service.New(service.Config{})
	svc.Start(context.Background())
	defer svc.Shutdown()
	_, err := svc.Submit(service.Spec{IDs: []string{"nosuch"}})
	if !errors.Is(err, hgw.ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	svc := service.New(service.Config{})
	if _, err := svc.Submit(udp3Spec); !errors.Is(err, service.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestShutdownCancelsJobs covers the shutdown path end to end: a full
// queue rejects submissions, and Shutdown promptly cancels both the
// in-flight job (interrupting its simulation mid-fleet) and the queued
// one.
func TestShutdownCancelsJobs(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 1})
	svc.Start(context.Background())

	// Big enough that it is still running when Shutdown fires: 800
	// devices, one shard, 40 iterations would take minutes uncancelled.
	running, err := svc.Submit(service.Spec{
		IDs: []string{"udp3"}, Seed: 11, Iterations: 40, Fleet: 800, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, running, service.StatusRunning, 30*time.Second)

	queued, err := svc.Submit(service.Spec{IDs: []string{"udp1"}, Seed: 1, Iterations: 1, Fleet: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(service.Spec{IDs: []string{"udp2"}, Seed: 2, Iterations: 1, Fleet: 4}); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("submit to full queue: err = %v, want ErrQueueFull", err)
	}

	done := make(chan struct{})
	go func() { svc.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not interrupt the in-flight job promptly")
	}
	if s := running.Status(); s != service.StatusCanceled {
		t.Errorf("in-flight job = %s, want canceled", s)
	}
	if s := queued.Status(); s != service.StatusCanceled {
		t.Errorf("queued job = %s, want canceled", s)
	}
	if _, err := svc.Submit(udp3Spec); !errors.Is(err, service.ErrStopped) {
		t.Errorf("submit after shutdown: err = %v, want ErrStopped", err)
	}
}

// TestShutdownConcurrentCallers: any number of goroutines calling
// Shutdown race-free, all returning only after the shutdown completed
// (queue drained, workers exited).
func TestShutdownConcurrentCallers(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 2})
	svc.Start(context.Background())
	running, err := svc.Submit(service.Spec{
		IDs: []string{"udp3"}, Seed: 11, Iterations: 40, Fleet: 800, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, running, service.StatusRunning, 30*time.Second)
	queued, err := svc.Submit(service.Spec{IDs: []string{"udp1"}, Seed: 1, Iterations: 1, Fleet: 4})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); svc.Shutdown() }()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Shutdown callers did not all return")
	}
	// Every caller returned only after the drain: the queued job must
	// already be canceled from any caller's perspective.
	if s := queued.Status(); s != service.StatusCanceled {
		t.Errorf("queued job = %s after Shutdown returned, want canceled", s)
	}
	svc.Shutdown() // and again, serially: still a no-op
}

// TestShutdownBeforeStart: Shutdown on a never-started service is a
// no-op that does not consume the shutdown — a later Start/Shutdown
// cycle still works.
func TestShutdownBeforeStart(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Shutdown()
	svc.Shutdown()
	svc.Start(context.Background())
	job, err := svc.Submit(service.Spec{IDs: []string{"udp1"}, Seed: 1, Iterations: 1, Fleet: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, time.Minute)
	svc.Shutdown()
	if _, err := svc.Submit(udp3Spec); !errors.Is(err, service.ErrStopped) {
		t.Errorf("submit after post-Start shutdown: err = %v, want ErrStopped", err)
	}
}

// TestFaultsSpecChangesKeyAndRuns: the faults field reaches hgw.Run
// (the faulted job completes) and keys separately from the unfaulted
// spec, while an all-zero faults object shares the unfaulted key.
func TestFaultsSpecChangesKeyAndRuns(t *testing.T) {
	base := udp3Spec
	baseKey, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.Faults = &hgw.FaultSpec{}
	zeroKey, err := zero.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if zeroKey != baseKey {
		t.Error("all-zero faults object changed the cache key")
	}
	faulted := base
	faulted.Faults = &hgw.FaultSpec{Rate: 1}
	faultedKey, err := faulted.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if faultedKey == baseKey {
		t.Fatal("faulted spec shares the unfaulted cache key")
	}

	svc := service.New(service.Config{Workers: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()
	job, err := svc.Submit(faulted)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, time.Minute)
	v := job.Snapshot()
	if v.Status != service.StatusDone {
		t.Fatalf("faulted job %s: %s", v.Status, v.Error)
	}
	if v.Devices != base.Fleet {
		t.Errorf("faulted job streamed %d device rows, want %d", v.Devices, base.Fleet)
	}
}
