// Command hgwload is the load generator for hgwd: it drives the
// measurement service with configurable request mixes and reports what
// the reuse stack (DESIGN.md §15) did about them. It is a regression
// test for queue, cache and coalescing behavior under heavy traffic
// (CI runs a duplicate-heavy mix against a live daemon and asserts the
// coalesce and cache-hit counters moved), and its reuse scenario gates
// itself: it exits 1 when a reuse floor or count check fails.
//
// Two scenarios:
//
//	-scenario mix (default) fires -requests jobs at -concurrency from a
//	seeded schedule in which a -dup fraction repeats an earlier spec,
//	then reports throughput, latency percentiles, per-status counts and
//	the server's /v1/stats delta (how many requests were served by the
//	cache tiers, coalesced onto an in-flight run, or actually executed).
//
//	-scenario reuse measures the reuse stack end to end with four
//	timed runs: a cold fleet job, the identical job re-submitted to a
//	freshly restarted daemon sharing the same -cache-dir (served from
//	the persistent result cache), the fleet grown by one shard at
//	constant per-shard size (every surviving shard served from the
//	shard memo store), and the grown fleet against an empty cache dir
//	(the memo run's cold control). The warm re-submit must execute no
//	job and run at least 50x faster than cold; the grown fleet must
//	miss the memo exactly once (its new shard) and run at least 4x
//	faster than its cold control.
//
// With -addr empty, hgwload self-serves: it starts an in-process hgwd
// on a loopback port (required for the reuse scenario, which restarts
// the daemon to prove persistence). Examples:
//
//	hgwload -requests 64 -concurrency 8 -dup 0.7 -fleet 128 -shards 4
//	hgwload -addr 127.0.0.1:8080 -requests 100 -dup 1 -json
//	hgwload -scenario reuse -fleet 1024 -shards 8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hgw/internal/service"
)

var (
	addr        = flag.String("addr", "", "target hgwd address (host:port); empty self-serves an in-process daemon")
	scenario    = flag.String("scenario", "mix", "mix | reuse")
	requests    = flag.Int("requests", 64, "total requests to issue (mix)")
	concurrency = flag.Int("concurrency", 8, "in-flight client requests (mix)")
	dup         = flag.Float64("dup", 0.5, "fraction of requests repeating an earlier spec (mix)")
	loadSeed    = flag.Int64("loadseed", 1, "rng seed for the request schedule (mix)")
	expID       = flag.String("exp", "udp1", "experiment id the specs request")
	fleet       = flag.Int("fleet", 128, "fleet size per spec (reuse default: 1024)")
	shards      = flag.Int("shards", 4, "shard count per spec (reuse default: 8)")
	iters       = flag.Int("iters", 1, "iterations per device")
	seedBase    = flag.Int64("seed", 1, "base spec seed; fresh specs increment from it")
	workers     = flag.Int("workers", 2, "self-served daemon's worker pool size")
	queueDepth  = flag.Int("queue", 64, "self-served daemon's queue depth")
	cacheDir    = flag.String("cache-dir", "", "self-served daemon's persistent cache dir (reuse: empty uses a temp dir)")
	jsonOut     = flag.Bool("json", false, "emit the mix report as JSON")
	pollEvery   = flag.Duration("poll", 5*time.Millisecond, "job status poll interval")
	timeout     = flag.Duration("timeout", 5*time.Minute, "per-request completion timeout")
)

func main() {
	flag.Parse()
	log.SetFlags(0)
	switch *scenario {
	case "mix":
		runMixScenario()
	case "reuse":
		if !runReuseScenario() {
			os.Exit(1)
		}
	default:
		log.Fatalf("hgwload: unknown -scenario %q (want mix or reuse)", *scenario)
	}
}

// client drives one hgwd over HTTP.
type client struct {
	base string
	hc   *http.Client
}

func newClient(hostport string) *client {
	return &client{base: "http://" + hostport, hc: &http.Client{Timeout: 30 * time.Second}}
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) stats() (service.Stats, error) {
	var st service.Stats
	err := c.getJSON("/v1/stats", &st)
	return st, err
}

// submit POSTs spec, retrying 429s per the server's Retry-After hint
// (capped so load tests re-probe quickly) until the deadline.
func (c *client) submit(spec service.Spec, deadline time.Time) (service.View, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.View{}, err
	}
	for {
		resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return service.View{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retry := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				retry = time.Duration(s) * time.Second
			}
			if retry > 2*time.Second {
				retry = 2 * time.Second
			}
			resp.Body.Close()
			if time.Now().Add(retry).After(deadline) {
				return service.View{}, fmt.Errorf("queue full past the deadline")
			}
			time.Sleep(retry)
			continue
		}
		var view service.View
		decErr := json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return view, fmt.Errorf("POST /v1/jobs: status %d", resp.StatusCode)
		}
		return view, decErr
	}
}

// wait polls the job until it reaches a terminal state.
func (c *client) wait(id string, deadline time.Time) (service.View, error) {
	for {
		var view service.View
		if err := c.getJSON("/v1/jobs/"+id, &view); err != nil {
			return view, err
		}
		//hgwlint:allow exhaustlint polling loop: the non-terminal states fall through and poll again
		switch view.Status {
		case service.StatusDone:
			return view, nil
		case service.StatusFailed, service.StatusCanceled:
			return view, fmt.Errorf("job %s %s: %s", id, view.Status, view.Error)
		}
		if time.Now().After(deadline) {
			return view, fmt.Errorf("job %s still %s at the deadline", id, view.Status)
		}
		time.Sleep(*pollEvery)
	}
}

// run submits one spec and follows it to completion.
func (c *client) run(spec service.Spec) (service.View, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(*timeout)
	view, err := c.submit(spec, deadline)
	if err == nil && !isTerminal(view.Status) {
		view, err = c.wait(view.ID, deadline)
	}
	return view, time.Since(start), err
}

func isTerminal(s service.Status) bool {
	return s == service.StatusDone || s == service.StatusFailed || s == service.StatusCanceled
}

// daemon is a self-served in-process hgwd.
type daemon struct {
	svc *service.Service
	srv *http.Server
	c   *client
}

func startDaemon(dir string) *daemon {
	svc := service.New(service.Config{Workers: *workers, QueueDepth: *queueDepth, CacheDir: dir})
	for _, warn := range svc.Warnings() {
		log.Printf("hgwload: daemon warning: %s", warn)
	}
	svc.Start(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("hgwload: listen: %v", err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	return &daemon{svc: svc, srv: srv, c: newClient(ln.Addr().String())}
}

// stop shuts the daemon down the way SIGTERM would: HTTP first, then
// the service (which flushes the persistent tiers' LRU indexes).
func (d *daemon) stop() {
	d.srv.Close()
	d.svc.Shutdown()
}

func specFor(seed int64) service.Spec {
	return service.Spec{
		IDs:        []string{*expID},
		Seed:       seed,
		Iterations: *iters,
		Fleet:      *fleet,
		Shards:     *shards,
	}
}

// statsDelta is the server-side story of one load run: how the
// requests were actually served.
type statsDelta struct {
	CacheHits     uint64 `json:"cache_hits"`
	CacheDiskHits uint64 `json:"cache_disk_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	MemoHits      uint64 `json:"memo_hits"`
	MemoMisses    uint64 `json:"memo_misses"`
	Coalesced     uint64 `json:"coalesced"`
	JobsExecuted  uint64 `json:"jobs_executed"`
}

func delta(before, after service.Stats) statsDelta {
	return statsDelta{
		CacheHits:     after.Cache.Hits - before.Cache.Hits,
		CacheDiskHits: after.Cache.DiskHits - before.Cache.DiskHits,
		CacheMisses:   after.Cache.Misses - before.Cache.Misses,
		MemoHits:      (after.Memo.MemHits + after.Memo.DiskHits) - (before.Memo.MemHits + before.Memo.DiskHits),
		MemoMisses:    after.Memo.Misses - before.Memo.Misses,
		Coalesced:     after.Coalesced - before.Coalesced,
		JobsExecuted:  after.JobsExecuted - before.JobsExecuted,
	}
}

// mixReport is the mix scenario's output (-json emits it verbatim).
type mixReport struct {
	Scenario    string             `json:"scenario"`
	Requests    int                `json:"requests"`
	Concurrency int                `json:"concurrency"`
	DupRatio    float64            `json:"dup_ratio"`
	WallMS      float64            `json:"wall_ms"`
	ReqPerSec   float64            `json:"req_per_sec"`
	Errors      int                `json:"errors"`
	Statuses    map[string]int     `json:"statuses"`
	Cached      int                `json:"cached"`
	Coalesced   int                `json:"coalesced"`
	LatencyMS   map[string]float64 `json:"latency_ms"`
	StatsDelta  statsDelta         `json:"stats_delta"`
}

func runMixScenario() {
	var c *client
	if *addr != "" {
		c = newClient(*addr)
	} else {
		d := startDaemon(*cacheDir)
		defer d.stop()
		c = d.c
	}
	before, err := c.stats()
	if err != nil {
		log.Fatalf("hgwload: reading /v1/stats: %v", err)
	}

	// The request schedule is drawn up front from -loadseed, so a given
	// flag set always issues the same specs in the same order: request
	// i either repeats a uniformly-chosen earlier spec (probability
	// -dup) or introduces the next fresh seed.
	rng := rand.New(rand.NewSource(*loadSeed))
	seeds := make([]int64, *requests)
	fresh := int64(0)
	for i := range seeds {
		if fresh > 0 && rng.Float64() < *dup {
			seeds[i] = *seedBase + rng.Int63n(fresh)
		} else {
			seeds[i] = *seedBase + fresh
			fresh++
		}
	}

	views := make([]service.View, *requests)
	lats := make([]time.Duration, *requests)
	errs := make([]error, *requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				views[i], lats[i], errs[i] = c.run(specFor(seeds[i]))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after, err := c.stats()
	if err != nil {
		log.Fatalf("hgwload: reading /v1/stats: %v", err)
	}

	rep := mixReport{
		Scenario:    "mix",
		Requests:    *requests,
		Concurrency: *concurrency,
		DupRatio:    *dup,
		WallMS:      float64(wall) / float64(time.Millisecond),
		ReqPerSec:   float64(*requests) / wall.Seconds(),
		Statuses:    map[string]int{},
		LatencyMS:   map[string]float64{},
		StatsDelta:  delta(before, after),
	}
	var ok []time.Duration
	for i := range views {
		if errs[i] != nil {
			rep.Errors++
			log.Printf("hgwload: request %d: %v", i, errs[i])
			continue
		}
		rep.Statuses[string(views[i].Status)]++
		if views[i].Cached {
			rep.Cached++
		}
		if views[i].Coalesced {
			rep.Coalesced++
		}
		ok = append(ok, lats[i])
	}
	if len(ok) > 0 {
		sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
		pct := func(p float64) float64 {
			idx := int(p * float64(len(ok)-1))
			return float64(ok[idx]) / float64(time.Millisecond)
		}
		var sum time.Duration
		for _, l := range ok {
			sum += l
		}
		rep.LatencyMS["p50"] = pct(0.50)
		rep.LatencyMS["p90"] = pct(0.90)
		rep.LatencyMS["p99"] = pct(0.99)
		rep.LatencyMS["max"] = float64(ok[len(ok)-1]) / float64(time.Millisecond)
		rep.LatencyMS["mean"] = float64(sum) / float64(len(ok)) / float64(time.Millisecond)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		fmt.Printf("hgwload mix: %d requests, concurrency %d, dup %.2f\n",
			rep.Requests, rep.Concurrency, rep.DupRatio)
		fmt.Printf("  wall %.1f ms  (%.1f req/s), errors %d\n", rep.WallMS, rep.ReqPerSec, rep.Errors)
		fmt.Printf("  latency ms: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f  mean %.1f\n",
			rep.LatencyMS["p50"], rep.LatencyMS["p90"], rep.LatencyMS["p99"],
			rep.LatencyMS["max"], rep.LatencyMS["mean"])
		fmt.Printf("  served: %d cached, %d coalesced, %d executed (cache hits %d mem + %d disk, memo hits %d)\n",
			rep.Cached, rep.Coalesced, rep.StatsDelta.JobsExecuted,
			rep.StatsDelta.CacheHits, rep.StatsDelta.CacheDiskHits, rep.StatsDelta.MemoHits)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// runReuseScenario reports whether every run, count check and floor
// held. It returns rather than exiting so its deferred temp-dir removal
// runs on failure too.
func runReuseScenario() bool {
	if flagUnset("fleet") {
		*fleet = 1024
	}
	if flagUnset("shards") {
		*shards = 8
	}
	dir := *cacheDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "hgwload-reuse-"); err != nil {
			log.Fatalf("hgwload: %v", err)
		}
		defer os.RemoveAll(dir)
	}
	coldDir, err := os.MkdirTemp("", "hgwload-reuse-cold-")
	if err != nil {
		log.Fatalf("hgwload: %v", err)
	}
	defer os.RemoveAll(coldDir)

	// MaxProcs 1 keeps the cold runs serial, so the ratios measure
	// reuse, not how many cores the machine has.
	spec := specFor(*seedBase)
	spec.MaxProcs = 1
	grown := spec
	grown.Fleet += spec.Fleet / spec.Shards
	grown.Shards++

	fail := false
	check := func(name string, err error) {
		if err != nil {
			fail = true
			log.Printf("hgwload: %s: %v", name, err)
		}
	}

	// Cold: first sight of the spec, populates both persistent tiers.
	d1 := startDaemon(dir)
	coldView, coldDur, err := d1.c.run(spec)
	if err == nil && coldView.Cached {
		err = fmt.Errorf("cold run served from cache; the cache dir was not empty")
	}
	check("cold", err)
	d1.stop()

	// Warm: identical spec against a restarted daemon on the same dir —
	// served from the persistent result cache, no simulation.
	d2 := startDaemon(dir)
	warmBefore, _ := d2.c.stats()
	warmView, warmDur, err := d2.c.run(spec)
	warmAfter, _ := d2.c.stats()
	wd := delta(warmBefore, warmAfter)
	if err == nil && !warmView.Cached {
		err = fmt.Errorf("warm re-submit missed the persistent cache")
	}
	if err == nil && wd.CacheDiskHits == 0 {
		err = fmt.Errorf("warm re-submit hit memory, not disk; restart persistence unproven")
	}
	if err == nil && wd.JobsExecuted != 0 {
		err = fmt.Errorf("warm re-submit executed %d jobs, want 0", wd.JobsExecuted)
	}
	check("warm_disk", err)

	// Memo: grow the fleet by one shard at constant per-shard size; the
	// surviving shards replay from the shard memo store (read back from
	// disk — the daemon restarted since they were recorded).
	memoBefore, _ := d2.c.stats()
	memoView, memoDur, err := d2.c.run(grown)
	memoAfter, _ := d2.c.stats()
	md := delta(memoBefore, memoAfter)
	if err == nil && memoView.Cached {
		err = fmt.Errorf("grown fleet served from the result cache; memo not exercised")
	}
	if err == nil && md.MemoHits < uint64(spec.Shards) {
		err = fmt.Errorf("grown fleet reused %d shards; want the %d surviving ones", md.MemoHits, spec.Shards)
	}
	if err == nil && md.MemoMisses != 1 {
		err = fmt.Errorf("grown fleet missed the memo %d times, want 1 (its new shard)", md.MemoMisses)
	}
	check("memo", err)
	d2.stop()

	// Memo-cold control: the same grown fleet with nothing to reuse.
	d3 := startDaemon(coldDir)
	_, memoColdDur, err := d3.c.run(grown)
	check("memo_cold", err)
	d3.stop()

	fmt.Printf("hgwload reuse (%s, fleet %d/%d shards, maxprocs 1):\n", *expID, spec.Fleet, spec.Shards)
	fmt.Printf("  cold       %10.1f ms\n", ms(coldDur))
	fmt.Printf("  warm disk  %10.1f ms  (%.0fx vs cold, %d disk hits)\n",
		ms(warmDur), ratio(coldDur, warmDur), wd.CacheDiskHits)
	fmt.Printf("  memo grown %10.1f ms  (%.1fx vs its cold control, %d shard replays)\n",
		ms(memoDur), ratio(memoColdDur, memoDur), md.MemoHits)
	fmt.Printf("  memo cold  %10.1f ms\n", ms(memoColdDur))

	// The floors compare runs of one invocation on one machine, so they
	// hold wherever the scenario runs.
	if coldDur < 50*warmDur {
		check("floor", fmt.Errorf("restart-warm re-submit only %.1fx faster than cold, want >= 50x", ratio(coldDur, warmDur)))
	}
	if memoColdDur < 4*memoDur {
		check("floor", fmt.Errorf("grown-fleet memo run only %.1fx faster than its cold control, want >= 4x", ratio(memoColdDur, memoDur)))
	}
	return !fail
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// flagUnset reports whether the user left name at its default, letting
// the reuse scenario pick its own (larger) geometry defaults.
func flagUnset(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return !set
}
