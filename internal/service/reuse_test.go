package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hgw"
	"hgw/internal/memo"
	"hgw/internal/service"
)

// slowSpec runs long enough (a second or two serialized) that the
// coalescing tests can reliably observe it mid-flight, but still
// completes within a normal test timeout.
var slowSpec = service.Spec{
	IDs: []string{"udp3"}, Seed: 21, Iterations: 8, Fleet: 400, Shards: 2, MaxProcs: 1,
}

// TestCoalesceConcurrentIdentical: N identical specs submitted while
// the first is executing produce exactly one execution. Every
// subscriber finishes byte-identical to the leader with the full
// device-event replay, and the counters tell the story: one executed
// flight, N coalesced submissions, zero cache traffic beyond the
// leader's miss.
func TestCoalesceConcurrentIdentical(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()

	leader, err := svc.Submit(slowSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, leader, service.StatusRunning, 30*time.Second)

	const subscribers = 5
	subs := make([]*service.Job, subscribers)
	for i := range subs {
		if subs[i], err = svc.Submit(slowSpec); err != nil {
			t.Fatal(err)
		}
		if v := subs[i].Snapshot(); !v.Coalesced || v.Cached {
			t.Fatalf("subscriber %d coalesced=%v cached=%v, want a coalesced live job", i, v.Coalesced, v.Cached)
		}
	}

	waitDone(t, leader, time.Minute)
	lv := leader.Snapshot()
	if lv.Status != service.StatusDone || lv.Coalesced || len(lv.Results) == 0 {
		t.Fatalf("leader status=%s coalesced=%v results=%dB", lv.Status, lv.Coalesced, len(lv.Results))
	}
	for i, sub := range subs {
		waitDone(t, sub, time.Second) // finishes with the leader
		sv := sub.Snapshot()
		if sv.Status != service.StatusDone {
			t.Fatalf("subscriber %d: %s (%s)", i, sv.Status, sv.Error)
		}
		if !bytes.Equal(sv.Results, lv.Results) {
			t.Errorf("subscriber %d results differ from the leader's", i)
		}
		if sv.Devices != slowSpec.Fleet {
			t.Errorf("subscriber %d replayed %d device rows, want %d", i, sv.Devices, slowSpec.Fleet)
		}
	}

	st := svc.Stats()
	if st.JobsExecuted != 1 {
		t.Errorf("jobs executed = %d, want 1 for %d identical submissions", st.JobsExecuted, subscribers+1)
	}
	if st.Coalesced != subscribers {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, subscribers)
	}
	// Every submission consults the result cache before coalescing (one
	// miss each); none may have hit, since the flight was still running.
	if st.Cache.Hits != 0 || st.Cache.Misses != subscribers+1 {
		t.Errorf("cache hits/misses = %d/%d, want 0/%d",
			st.Cache.Hits, st.Cache.Misses, subscribers+1)
	}
}

// TestCoalescedCancelLeavesLeader: cancelling a subscriber detaches it
// without disturbing the shared execution — the leader keeps running
// and completes with results.
func TestCoalescedCancelLeavesLeader(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()

	leader, err := svc.Submit(slowSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, leader, service.StatusRunning, 30*time.Second)
	sub, err := svc.Submit(slowSpec)
	if err != nil {
		t.Fatal(err)
	}

	canceled, err := svc.Cancel(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s := canceled.Status(); s != service.StatusCanceled {
		t.Fatalf("cancelled subscriber is %s, want canceled", s)
	}
	if s := leader.Status(); s != service.StatusRunning {
		t.Fatalf("leader is %s after subscriber cancel, want still running", s)
	}

	waitDone(t, leader, time.Minute)
	if v := leader.Snapshot(); v.Status != service.StatusDone || len(v.Results) == 0 {
		t.Fatalf("leader status=%s results=%dB after subscriber cancel", v.Status, len(v.Results))
	}
}

// TestLeaderCancelKeepsSubscriber: the flight belongs to its members,
// not to whoever submitted first — cancelling the original submitter
// while a subscriber is attached leaves the execution running, and the
// subscriber collects the full results.
func TestLeaderCancelKeepsSubscriber(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()

	leader, err := svc.Submit(slowSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, leader, service.StatusRunning, 30*time.Second)
	sub, err := svc.Submit(slowSpec)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := svc.Cancel(leader.ID); err != nil {
		t.Fatal(err)
	}
	if s := leader.Status(); s != service.StatusCanceled {
		t.Fatalf("leader is %s after cancel, want canceled", s)
	}

	waitDone(t, sub, time.Minute)
	sv := sub.Snapshot()
	if sv.Status != service.StatusDone || len(sv.Results) == 0 {
		t.Fatalf("subscriber status=%s results=%dB after leader cancel, want done with results",
			sv.Status, len(sv.Results))
	}
	if sv.Devices != slowSpec.Fleet {
		t.Errorf("subscriber replayed %d device rows, want %d", sv.Devices, slowSpec.Fleet)
	}
	if st := svc.Stats(); st.JobsExecuted != 1 {
		t.Errorf("jobs executed = %d, want 1", st.JobsExecuted)
	}
}

// TestLastMemberCancelAbortsExecution: when every member of a flight
// has cancelled, the execution itself is interrupted and the worker
// frees up for other jobs.
func TestLastMemberCancelAbortsExecution(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()

	// Big enough to still be mid-simulation at cancel time.
	leader, err := svc.Submit(service.Spec{
		IDs: []string{"udp3"}, Seed: 11, Iterations: 40, Fleet: 800, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, leader, service.StatusRunning, 30*time.Second)
	if _, err := svc.Cancel(leader.ID); err != nil {
		t.Fatal(err)
	}

	// The freed worker proves the abort: a fresh job gets through well
	// before the cancelled simulation could have finished on its own.
	next, err := svc.Submit(service.Spec{IDs: []string{"udp1"}, Seed: 1, Iterations: 1, Fleet: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, next, 30*time.Second)
	if s := next.Status(); s != service.StatusDone {
		t.Errorf("follow-up job is %s, want done", s)
	}
}

// TestDiskCacheRestartRoundTrip: results persist across a full daemon
// restart sharing a cache dir — the re-submitted spec completes
// synchronously from the disk tier, byte-identical to the original
// run, and Shutdown left both persistent tiers' LRU indexes on disk.
func TestDiskCacheRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()

	svc1 := service.New(service.Config{Workers: 1, CacheDir: dir})
	if warns := svc1.Warnings(); len(warns) != 0 {
		t.Fatalf("fresh cache dir produced warnings: %v", warns)
	}
	svc1.Start(context.Background())
	first, err := svc1.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first, time.Minute)
	v1 := first.Snapshot()
	if v1.Status != service.StatusDone {
		t.Fatalf("first run %s: %s", v1.Status, v1.Error)
	}
	svc1.Shutdown()

	for _, sub := range []string{"results", "shards"} {
		if _, err := os.Stat(filepath.Join(dir, sub, "index.json")); err != nil {
			t.Errorf("Shutdown did not flush the %s LRU index: %v", sub, err)
		}
	}

	svc2 := service.New(service.Config{Workers: 1, CacheDir: dir})
	svc2.Start(context.Background())
	defer svc2.Shutdown()
	second, err := svc2.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second, time.Second) // disk hits complete synchronously
	v2 := second.Snapshot()
	if v2.Status != service.StatusDone || !v2.Cached {
		t.Fatalf("restarted re-submit status=%s cached=%v, want done from the persistent tier",
			v2.Status, v2.Cached)
	}
	if !bytes.Equal(v2.Results, v1.Results) {
		t.Error("results served across restart are not byte-identical")
	}
	if v2.Devices != udp3Spec.Fleet {
		t.Errorf("restarted re-submit replayed %d device events, want %d", v2.Devices, udp3Spec.Fleet)
	}
	st := svc2.Stats()
	if st.Cache.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.Cache.DiskHits)
	}
	if st.JobsExecuted != 0 {
		t.Errorf("jobs executed = %d after restart, want 0 (served from disk)", st.JobsExecuted)
	}
}

// TestDiskCacheCorruptionServedAsMiss: a truncated result blob fails
// its checksum and is served as a miss — the job re-runs instead of
// returning damaged bytes — and the re-run repairs the blob, so the
// next restart serves it from disk again.
func TestDiskCacheCorruptionServedAsMiss(t *testing.T) {
	dir := t.TempDir()

	svc1 := service.New(service.Config{Workers: 1, CacheDir: dir})
	svc1.Start(context.Background())
	first, err := svc1.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first, time.Minute)
	v1 := first.Snapshot()
	svc1.Shutdown()

	// Truncate every result blob: the payload survives partially but
	// the trailing checksum no longer matches.
	blobs, err := filepath.Glob(filepath.Join(dir, "results", "*.blob"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no result blobs under the cache dir (err=%v)", err)
	}
	for _, b := range blobs {
		raw, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(b, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc2 := service.New(service.Config{Workers: 1, CacheDir: dir})
	svc2.Start(context.Background())
	second, err := svc2.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second, time.Minute)
	v2 := second.Snapshot()
	if v2.Status != service.StatusDone || v2.Cached {
		t.Fatalf("corrupted-blob re-submit status=%s cached=%v, want a fresh run", v2.Status, v2.Cached)
	}
	if !bytes.Equal(v2.Results, v1.Results) {
		t.Error("re-run after corruption is not byte-identical (determinism broken)")
	}
	st := svc2.Stats()
	if st.Cache.DiskCorrupt == 0 {
		t.Error("corrupt counter never moved for a truncated blob")
	}
	if st.JobsExecuted != 1 {
		t.Errorf("jobs executed = %d, want 1 (corruption must re-run)", st.JobsExecuted)
	}
	svc2.Shutdown()

	// The re-run rewrote the blob: a third daemon serves it from disk.
	svc3 := service.New(service.Config{Workers: 1, CacheDir: dir})
	svc3.Start(context.Background())
	defer svc3.Shutdown()
	third, err := svc3.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, third, time.Second)
	if v3 := third.Snapshot(); v3.Status != service.StatusDone || !v3.Cached {
		t.Fatalf("post-repair re-submit status=%s cached=%v, want done from disk", v3.Status, v3.Cached)
	}
}

// TestDiskCacheLegacyEnvelopeReplaced: a result blob in the earlier
// JSON-envelope format (checksummed, so the disk tier serves it) is a
// miss — the job runs instead of serving the envelope's bytes — and the
// run's put replaces it, so the next restart serves the new blob from
// disk without executing.
func TestDiskCacheLegacyEnvelopeReplaced(t *testing.T) {
	dir := t.TempDir()
	key, err := udp3Spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := memo.OpenDisk(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	legacy.Put(key, []byte(`{"results":{"stale":true},"events":[{"ExperimentID":"udp3"}]}`))
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	svc1 := service.New(service.Config{Workers: 1, CacheDir: dir})
	svc1.Start(context.Background())
	first, err := svc1.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first, time.Minute)
	v1 := first.Snapshot()
	if v1.Status != service.StatusDone || v1.Cached || bytes.Contains(v1.Results, []byte("stale")) {
		t.Fatalf("legacy-blob submit status=%s cached=%v results=%.40q, want a fresh run",
			v1.Status, v1.Cached, v1.Results)
	}
	if st := svc1.Stats(); st.JobsExecuted != 1 || st.Cache.DiskHits != 0 || st.Cache.Misses != 1 {
		t.Errorf("executed=%d disk hits=%d misses=%d, want 1, 0 and 1 (a legacy blob is a miss and re-runs)",
			st.JobsExecuted, st.Cache.DiskHits, st.Cache.Misses)
	}
	svc1.Shutdown()

	svc2 := service.New(service.Config{Workers: 1, CacheDir: dir})
	svc2.Start(context.Background())
	defer svc2.Shutdown()
	second, err := svc2.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second, time.Second)
	v2 := second.Snapshot()
	if v2.Status != service.StatusDone || !v2.Cached || !bytes.Equal(v2.Results, v1.Results) {
		t.Fatalf("post-replace re-submit status=%s cached=%v same=%v, want the run's bytes from disk",
			v2.Status, v2.Cached, bytes.Equal(v2.Results, v1.Results))
	}
	if st := svc2.Stats(); st.JobsExecuted != 0 || st.Cache.DiskHits != 1 {
		t.Errorf("after restart: executed=%d disk hits=%d, want 0 and 1", st.JobsExecuted, st.Cache.DiskHits)
	}
}

// TestStreamRowsByteIdentical: the /stream body of an executed job
// (read live while it runs), a coalesced job, a memory hit and a
// restart-warm disk hit are the same bytes, and those bytes are what a
// json.Encoder writes for hgw.Run's device events, one Encode per row.
func TestStreamRowsByteIdentical(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	if _, err := hgw.Run(context.Background(), udp3Spec.IDs, hgw.WithSeed(udp3Spec.Seed),
		hgw.WithIterations(udp3Spec.Iterations), hgw.WithFleet(udp3Spec.Fleet), hgw.WithShards(udp3Spec.Shards),
		hgw.WithDeviceResults(func(ev hgw.DeviceEvent) {
			if err := enc.Encode(ev); err != nil {
				t.Error(err)
			}
		})); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(want.Bytes(), []byte{'\n'}); n != udp3Spec.Fleet {
		t.Fatalf("reference stream has %d rows, want %d", n, udp3Spec.Fleet)
	}

	dir := t.TempDir()
	stream := func(base, id string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	check := func(name string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: /stream body (%d B) differs from the encoded events (%d B)", name, len(got), want.Len())
		}
	}

	svc1 := service.New(service.Config{Workers: 1, CacheDir: dir})
	svc1.Start(context.Background())
	srv1 := httptest.NewServer(svc1.Handler())
	// A long job holds the only worker, so the leader is still queued
	// when its duplicate arrives; canceling it then frees the worker.
	blocker, err := svc1.Submit(service.Spec{IDs: []string{"udp3"}, Seed: 11, Iterations: 40, Fleet: 800, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := svc1.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := svc1.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Snapshot().Coalesced {
		t.Fatal("duplicate did not coalesce onto the queued leader")
	}
	if _, err := svc1.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	check("executed, read live", stream(srv1.URL, leader.ID))
	waitDone(t, sub, time.Minute)
	check("coalesced", stream(srv1.URL, sub.ID))
	hit, err := svc1.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Snapshot().Cached {
		t.Fatal("third submit was not a memory hit")
	}
	check("memory hit", stream(srv1.URL, hit.ID))
	srv1.Close()
	svc1.Shutdown()

	svc2 := service.New(service.Config{Workers: 1, CacheDir: dir})
	svc2.Start(context.Background())
	defer svc2.Shutdown()
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	warm, err := svc2.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := svc2.Stats(); !warm.Snapshot().Cached || st.Cache.DiskHits != 1 {
		t.Fatalf("restart re-submit cached=%v disk hits=%d, want a disk hit", warm.Snapshot().Cached, st.Cache.DiskHits)
	}
	check("restart-warm disk hit", stream(srv2.URL, warm.ID))
}

// TestCacheDirUnusableDegrades: an unusable cache dir (a path through
// a regular file — chmod tricks don't bite as root) degrades the
// service to memory-only with warnings instead of failing; jobs still
// complete and repeats still hit the in-memory tier.
func TestCacheDirUnusableDegrades(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "occupied")
	if err := os.WriteFile(file, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc := service.New(service.Config{Workers: 1, CacheDir: filepath.Join(file, "cache")})
	warns := svc.Warnings()
	if len(warns) == 0 {
		t.Fatal("unusable cache dir produced no warnings")
	}
	for _, w := range warns {
		if !strings.Contains(w, "memory-only") {
			t.Errorf("warning %q does not say the tier degraded to memory-only", w)
		}
	}
	svc.Start(context.Background())
	defer svc.Shutdown()

	first, err := svc.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first, time.Minute)
	if s := first.Status(); s != service.StatusDone {
		t.Fatalf("job on a degraded service is %s, want done", s)
	}
	second, err := svc.Submit(udp3Spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second, time.Second)
	if v := second.Snapshot(); !v.Cached {
		t.Error("memory tier stopped working after disk degradation")
	}
}

// TestCancelOverHTTP covers the DELETE /v1/jobs/{id} surface: 404 for
// unknown ids, 200 with the canceled snapshot for live jobs, 409 with
// the terminal snapshot for finished ones.
func TestCancelOverHTTP(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	del := func(id string) (*http.Response, service.View) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v service.View
		_ = json.NewDecoder(resp.Body).Decode(&v)
		return resp, v
	}

	if resp, _ := del("nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}

	live, err := svc.Submit(slowSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, live, service.StatusRunning, 30*time.Second)
	resp, v := del(live.ID)
	if resp.StatusCode != http.StatusOK || v.Status != service.StatusCanceled {
		t.Errorf("DELETE live job = %d status %s, want 200 canceled", resp.StatusCode, v.Status)
	}

	done, err := svc.Submit(service.Spec{IDs: []string{"udp1"}, Seed: 1, Iterations: 1, Fleet: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, time.Minute)
	resp, v = del(done.ID)
	if resp.StatusCode != http.StatusConflict || v.Status != service.StatusDone {
		t.Errorf("DELETE terminal job = %d status %s, want 409 with the done snapshot", resp.StatusCode, v.Status)
	}
}
