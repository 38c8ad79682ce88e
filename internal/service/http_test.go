package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hgw"
	"hgw/internal/service"
)

// postJob submits spec and decodes the job view from the response.
func postJob(t *testing.T, base string, spec service.Spec) (service.View, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job response: %v", err)
	}
	return v, resp.StatusCode
}

// getJob polls GET /v1/jobs/{id} until the job is terminal.
func getJob(t *testing.T, base, id string, d time.Duration) service.View {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v service.View
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		//hgwlint:allow exhaustlint polling loop: the non-terminal states fall through and poll again
		switch v.Status {
		case service.StatusDone, service.StatusFailed, service.StatusCanceled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonEndToEnd is the acceptance check for the hgwd API: the same
// udp3 fleet job submitted twice over HTTP comes back byte-identical
// the second time, served from cache (hit counter up, handler time
// down), and the NDJSON stream yields exactly WithFleet(n) device rows.
func TestDaemonEndToEnd(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	svc.Start(context.Background())
	defer svc.Shutdown()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Registry metadata matches the package registry.
	resp, err := http.Get(srv.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var catalog struct {
		Experiments []hgw.ExperimentInfo `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&catalog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := len(hgw.Registry()); len(catalog.Experiments) != want {
		t.Fatalf("GET /v1/experiments lists %d experiments, want %d", len(catalog.Experiments), want)
	}

	spec := service.Spec{IDs: []string{"udp3"}, Seed: 7, Iterations: 1, Fleet: 40, Shards: 4}
	submitted, code := postJob(t, srv.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST /v1/jobs = %d, want 202", code)
	}
	first := getJob(t, srv.URL, submitted.ID, time.Minute)
	if first.Status != service.StatusDone {
		t.Fatalf("first job %s: %s", first.Status, first.Error)
	}
	if len(first.Results) == 0 || first.Cached {
		t.Fatalf("first job cached=%v results=%dB, want a fresh non-empty run", first.Cached, len(first.Results))
	}
	if first.ElapsedMS <= 0 {
		t.Errorf("first job elapsed_ms = %v, want > 0", first.ElapsedMS)
	}

	// Second submission of the identical spec: answered from cache.
	resubmitted, code := postJob(t, srv.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("cached POST /v1/jobs = %d, want 200 (already complete)", code)
	}
	second := getJob(t, srv.URL, resubmitted.ID, time.Second)
	if second.Status != service.StatusDone || !second.Cached {
		t.Fatalf("second job status=%s cached=%v, want done from cache", second.Status, second.Cached)
	}
	if !bytes.Equal(second.Results, first.Results) {
		t.Error("cached response results are not byte-identical to the first run")
	}
	if second.ElapsedMS >= first.ElapsedMS {
		t.Errorf("cached job took %.2fms, first run %.2fms; cache hit should be faster",
			second.ElapsedMS, first.ElapsedMS)
	}
	var stats service.Stats
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache.Hits != 1 {
		t.Errorf("cache hit counter = %d, want 1", stats.Cache.Hits)
	}

	// Both jobs stream exactly WithFleet(n) NDJSON device rows.
	for _, id := range []string{first.ID, second.ID} {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev hgw.DeviceEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("stream row %d is not a DeviceEvent: %v", rows, err)
			}
			if ev.ExperimentID != "udp3" || ev.Result.Tag == "" {
				t.Fatalf("stream row %d malformed: %+v", rows, ev)
			}
			rows++
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if rows != spec.Fleet {
			t.Errorf("stream for %s yielded %d rows, want %d", id, rows, spec.Fleet)
		}
	}
}

func TestDaemonErrors(t *testing.T) {
	svc := service.New(service.Config{})
	svc.Start(context.Background())
	defer svc.Shutdown()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"ids":["nosuch"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST unknown experiment = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST malformed spec = %d, want 400", resp.StatusCode)
	}

	// "parallelism" was removed from the Spec: strict decoding rejects
	// it rather than silently ignoring a knob that no longer exists.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"ids":["udp1"],"parallelism":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST spec with removed parallelism field = %d, want 400", resp.StatusCode)
	}
}

// TestQueueFullRetryAfter: the 429 response carries a Retry-After
// header with a positive integer number of seconds (clamped to at most
// 60), per the client backoff contract in DESIGN.md §8.
func TestQueueFullRetryAfter(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Occupy the worker, then the queue.
	body := `{"ids":["udp3"],"seed":11,"iterations":40,"fleet":800,"shards":1}`
	for i, b := range []string{body,
		`{"ids":["udp1"],"seed":1,"iterations":1,"fleet":4}`} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d = %d, want 202", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"ids":["udp2"],"seed":2,"iterations":1,"fleet":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission to full queue = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 response lacks a Retry-After header")
	}
	sec, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if sec < 1 || sec > 60 {
		t.Fatalf("Retry-After = %d, want within [1, 60]", sec)
	}
}

// TestFaultedJobOverHTTP: the faults spec field round-trips through
// the JSON API and the faulted fleet job completes with streamed rows.
func TestFaultedJobOverHTTP(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	svc.Start(context.Background())
	defer svc.Shutdown()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	spec := service.Spec{IDs: []string{"udp3"}, Seed: 5, Iterations: 1,
		Fleet: 24, Shards: 3, Faults: &hgw.FaultSpec{Rate: 1}}
	v, code := postJob(t, srv.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("faulted submission = %d, want 202", code)
	}
	if v.Spec.Faults == nil || v.Spec.Faults.Rate != 1 {
		t.Fatalf("faults spec did not round-trip: %+v", v.Spec.Faults)
	}
	done := getJob(t, srv.URL, v.ID, time.Minute)
	if done.Status != service.StatusDone {
		t.Fatalf("faulted job %s: %s", done.Status, done.Error)
	}
	if done.Devices != spec.Fleet {
		t.Errorf("faulted job streamed %d rows, want %d", done.Devices, spec.Fleet)
	}
}
