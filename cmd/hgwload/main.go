// Command hgwload is the reuse-stack gate for hgwd: it measures the
// reuse stack (DESIGN.md §15) end to end with four timed runs, three
// times over on fresh cache dirs, and exits 1 when a count check fails
// on any repetition or a reuse floor fails on the median.
//
// The runs are a cold fleet job, the identical job re-submitted to a
// freshly restarted daemon sharing the same cache dir (served from the
// persistent result cache), the fleet grown by one shard at constant
// per-shard size (every surviving shard served from the shard memo
// store), and the grown fleet against an empty cache dir (the memo
// run's cold control). The warm re-submit must execute no job and run
// at least 50x faster than cold; the grown fleet must miss the memo
// exactly once (its new shard) and run at least 4x faster than its cold
// control. Both floors are ratios against a cold run, and one sample
// moves with the machine's load, so they gate the median.
//
// hgwload serves itself: it starts an in-process hgwd on a loopback
// port, and restarts it to prove persistence. Example:
//
//	hgwload -fleet 1024 -shards 8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"hgw/internal/service"
)

// repetitions is how many times the scenario runs (odd, so the median
// is one sample).
const repetitions = 3

var (
	expID     = flag.String("exp", "udp1", "experiment id the specs request")
	fleet     = flag.Int("fleet", 1024, "fleet size per spec")
	shards    = flag.Int("shards", 8, "shard count per spec")
	iters     = flag.Int("iters", 1, "iterations per device")
	seedBase  = flag.Int64("seed", 1, "spec seed")
	cacheDir  = flag.String("cache-dir", "", "directory the self-served daemons' fresh cache dirs are made in (empty uses the system temp dir)")
	pollEvery = flag.Duration("poll", 5*time.Millisecond, "job status poll interval")
	timeout   = flag.Duration("timeout", 5*time.Minute, "per-request completion timeout")
)

func main() {
	flag.Parse()
	log.SetFlags(0)
	if !runReuseScenario() {
		os.Exit(1)
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

// submit POSTs spec once. The scenario submits one job at a time, so
// the daemon's queue never fills.
func (c *client) submit(spec service.Spec) (service.View, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.View{}, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.View{}, err
	}
	defer resp.Body.Close()
	var view service.View
	decErr := json.NewDecoder(resp.Body).Decode(&view)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return view, fmt.Errorf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	return view, decErr
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
	view, err := c.submit(spec)
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
	svc := service.New(service.Config{CacheDir: dir})
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

// statsDelta is the server-side story of one run: how the request
// was actually served.
type statsDelta struct {
	CacheDiskHits uint64
	MemoHits      uint64
	MemoMisses    uint64
	JobsExecuted  uint64
}

func delta(before, after service.Stats) statsDelta {
	return statsDelta{
		CacheDiskHits: after.Cache.DiskHits - before.Cache.DiskHits,
		MemoHits:      (after.Memo.MemHits + after.Memo.DiskHits) - (before.Memo.MemHits + before.Memo.DiskHits),
		MemoMisses:    after.Memo.Misses - before.Memo.Misses,
		JobsExecuted:  after.JobsExecuted - before.JobsExecuted,
	}
}

// runReuseScenario reports whether every repetition's runs and count
// checks held and both floors held on the median ratios.
func runReuseScenario() bool {
	// MaxProcs 1 keeps the cold runs serial, so the ratios measure
	// reuse, not how many cores the machine has.
	spec := service.Spec{
		IDs:        []string{*expID},
		Seed:       *seedBase,
		Iterations: *iters,
		Fleet:      *fleet,
		Shards:     *shards,
		MaxProcs:   1,
	}
	grown := spec
	grown.Fleet += spec.Fleet / spec.Shards
	grown.Shards++

	fmt.Printf("hgwload reuse (%s, fleet %d/%d shards, maxprocs 1), %d repetitions:\n",
		*expID, spec.Fleet, spec.Shards, repetitions)
	fmt.Printf("  %3s %9s %9s %7s %5s %9s %9s %7s %7s\n",
		"rep", "cold ms", "warm ms", "warm x", "disk", "memo ms", "mcold ms", "memo x", "replays")
	ok := true
	var warmX, memoX []float64
	for rep := 1; rep <= repetitions; rep++ {
		w, m, held := runOnce(rep, spec, grown)
		ok = ok && held
		warmX, memoX = append(warmX, w), append(memoX, m)
	}
	warmMed, memoMed := median(warmX), median(memoX)
	fmt.Printf("  median: warm disk %.1fx vs cold (floor 50x), memo grown %.2fx vs its cold control (floor 4x)\n",
		warmMed, memoMed)

	// The floors compare runs of one invocation on one machine, so they
	// hold wherever the scenario runs.
	if warmMed < 50 {
		ok = false
		log.Printf("hgwload: floor: restart-warm re-submit only %.1fx faster than cold in the median, want >= 50x", warmMed)
	}
	if memoMed < 4 {
		ok = false
		log.Printf("hgwload: floor: grown-fleet memo run only %.2fx faster than its cold control in the median, want >= 4x", memoMed)
	}
	return ok
}

// runOnce runs the four timed runs on fresh cache dirs, prints them,
// and returns the warm and memo speed-ups and whether every run and
// count check held. It returns rather than exiting so its deferred
// temp-dir removal runs on failure too.
func runOnce(rep int, spec, grown service.Spec) (warmX, memoX float64, held bool) {
	dir, err := os.MkdirTemp(*cacheDir, "hgwload-reuse-")
	if err != nil {
		log.Fatalf("hgwload: %v", err)
	}
	defer os.RemoveAll(dir)
	coldDir, err := os.MkdirTemp(*cacheDir, "hgwload-reuse-cold-")
	if err != nil {
		log.Fatalf("hgwload: %v", err)
	}
	defer os.RemoveAll(coldDir)

	held = true
	check := func(name string, err error) {
		if err != nil {
			held = false
			log.Printf("hgwload: rep %d: %s: %v", rep, name, err)
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

	warmX, memoX = ratio(coldDur, warmDur), ratio(memoColdDur, memoDur)
	fmt.Printf("  %3d %9.1f %9.2f %7.1f %5d %9.1f %9.1f %7.2f %7d\n",
		rep, ms(coldDur), ms(warmDur), warmX, wd.CacheDiskHits,
		ms(memoDur), ms(memoColdDur), memoX, md.MemoHits)
	return warmX, memoX, held
}

// median returns the middle one of an odd count of samples.
func median(xs []float64) float64 { return slices.Sorted(slices.Values(xs))[len(xs)/2] }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
