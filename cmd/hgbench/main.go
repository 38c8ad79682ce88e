// Command hgbench regenerates every table and figure of the paper's
// evaluation section and prints them in the paper's style, together
// with the population statistics the prose quotes. The experiment set,
// section titles and paper references all come from hgw.Registry().
//
//	hgbench                       # everything, quick settings
//	hgbench -exp udp1,tcp4        # a subset
//	hgbench -iters 100 -bytes 100000000   # paper-strength settings
//	hgbench -fleet 1000 -shards 8         # 1000 synthetic devices, 8 sub-testbeds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hgw"
)

var (
	expFlag  = flag.String("exp", "all", "comma-separated experiment ids (see hgprobe -list) or 'all'")
	tags     = flag.String("tags", "", "comma-separated device tags (default all)")
	iters    = flag.Int("iters", 5, "iterations per device (paper: 100)")
	bytesF   = flag.Int("bytes", 8<<20, "TCP-2 transfer size (paper: 100 MB)")
	seed     = flag.Int64("seed", 1, "simulation seed")
	markdown = flag.Bool("markdown", false, "also emit markdown tables for figure results")
	csvOut   = flag.Bool("csv", false, "emit Table 2 as CSV instead of the dot matrix")
	fleet    = flag.Int("fleet", 0, "fleet mode: measure N synthetic devices instead of the 34-device inventory")
	shards   = flag.Int("shards", 1, "partition the fleet across K concurrent sub-testbeds")
	maxprocs = flag.Int("maxprocs", 0, "max concurrent experiments or fleet shards (0 = NumCPU; output is identical at any value)")

	benchjson = flag.Bool("benchjson", false, "run each experiment as a benchmark and write a JSON trajectory file instead of rendering")
	benchout  = flag.String("benchout", "BENCH_pr.json", "output path for the -benchjson trajectory file")
	reportOut = flag.Bool("report", false, "print the run telemetry report after the tables")
)

// benchEntry is one benchmark row of the -benchjson trajectory file.
// The shape mirrors `go test -bench` output (name, ns/op, allocs/op)
// plus the experiment's headline reproduction metrics, so CI can diff
// trajectories across PRs.
type benchEntry struct {
	Name      string             `json:"name"`
	NsPerOp   int64              `json:"ns_op"`
	AllocsOp  uint64             `json:"allocs_op"`
	BytesOp   uint64             `json:"bytes_op"`
	Err       string             `json:"err,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Timestamp string             `json:"timestamp"`
}

// fleetBenchShards are the shard counts of the fleet scaling rows a
// default -benchjson run appends: hgbench/fleet/udp1/d2048/s{1,8,32}.
// The cross-PR regression test (benchdiff_test.go) reads these rows to
// assert sharding keeps beating the single-shard baseline.
var fleetBenchShards = []int{1, 8, 32}

// runBenchJSON runs every experiment individually, measuring wall
// clock and allocator traffic per run, and writes the trajectory file.
// Unless the caller benched an explicit fleet, a fleet scaling sweep
// (2048 synthetic devices at 1, 8 and 32 shards) is appended so the
// trajectory records multicore shard throughput alongside the
// inventory rows.
func runBenchJSON(ids []string, opts []hgw.Option) error {
	if len(ids) == 0 {
		for _, e := range hgw.Registry() {
			ids = append(ids, e.ID)
		}
	}
	stamp := time.Now().UTC().Format(time.RFC3339)
	var entries []benchEntry
	var before, after runtime.MemStats
	bench := func(name string, runIDs []string, runOpts []hgw.Option) {
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		results, err := hgw.Run(context.Background(), runIDs, runOpts...)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		e := benchEntry{
			Name:      name,
			NsPerOp:   elapsed.Nanoseconds(),
			AllocsOp:  after.Mallocs - before.Mallocs,
			BytesOp:   after.TotalAlloc - before.TotalAlloc,
			Timestamp: stamp,
		}
		if err != nil {
			e.Err = err.Error()
		} else if len(results) > 0 && results[0].Figure != nil {
			e.Metrics = map[string]float64{
				"pop-median": results[0].Figure.Median,
			}
		}
		entries = append(entries, e)
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %10d allocs/op\n", e.Name, e.NsPerOp, e.AllocsOp)
	}
	for _, id := range ids {
		bench("hgbench/"+id, []string{id}, opts)
	}
	if *fleet == 0 {
		for _, sh := range fleetBenchShards {
			fopts := []hgw.Option{
				hgw.WithSeed(*seed), hgw.WithIterations(1),
				hgw.WithFleet(2048), hgw.WithShards(sh),
			}
			if *maxprocs > 0 {
				fopts = append(fopts, hgw.WithMaxProcs(*maxprocs))
			}
			bench(fmt.Sprintf("hgbench/fleet/udp1/d2048/s%d", sh), []string{"udp1"}, fopts)
		}
		// One telemetry-enabled row records the cost of running the same
		// 8-shard fleet with per-shard registries and a run report
		// attached; the obs-off rows above stay the regression baseline.
		oopts := []hgw.Option{
			hgw.WithSeed(*seed), hgw.WithIterations(1),
			hgw.WithFleet(2048), hgw.WithShards(8),
			hgw.WithRunReport(func(*hgw.RunReport) {}),
		}
		if *maxprocs > 0 {
			oopts = append(oopts, hgw.WithMaxProcs(*maxprocs))
		}
		bench("hgbench/fleet/udp1/d2048/s8/obs", []string{"udp1"}, oopts)
		// One faulted row records the cost of the chaos path: the same
		// 8-shard fleet with a heavy seeded fault plan (flaps, loss,
		// corruption, blackholes and reboots at rate 0.5 per gateway).
		topts := []hgw.Option{
			hgw.WithSeed(*seed), hgw.WithIterations(1),
			hgw.WithFleet(2048), hgw.WithShards(8),
			hgw.WithFaultRate(0.5),
		}
		if *maxprocs > 0 {
			topts = append(topts, hgw.WithMaxProcs(*maxprocs))
		}
		bench("hgbench/fleet/udp1/d2048/s8/fault", []string{"udp1"}, topts)
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*benchout, append(out, '\n'), 0o644)
}

func main() {
	flag.Parse()

	var ids []string // nil = the registry's default set
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
	}
	opts := []hgw.Option{
		hgw.WithSeed(*seed),
		hgw.WithIterations(*iters),
		hgw.WithTransferBytes(*bytesF),
	}
	if *tags != "" {
		opts = append(opts, hgw.WithTags(strings.Split(*tags, ",")...))
	}
	if *fleet > 0 {
		// Fleet mode: synthetic population, sharded testbeds. With -exp
		// unset the run covers hgw.FleetIDs (the UDP-1/2/3 sweeps).
		opts = append(opts, hgw.WithFleet(*fleet), hgw.WithShards(*shards))
	}
	if *maxprocs > 0 {
		opts = append(opts, hgw.WithMaxProcs(*maxprocs))
	}
	var report *hgw.RunReport
	if *reportOut {
		opts = append(opts, hgw.WithRunReport(func(rep *hgw.RunReport) { report = rep }))
	}

	if *benchjson {
		if err := runBenchJSON(ids, opts); err != nil {
			fmt.Fprintln(os.Stderr, "hgbench: benchjson:", err)
			os.Exit(1)
		}
		return
	}

	// Render whatever completed even when some experiments failed, then
	// report the error. The Table 2 components (icmp/sctp/dccp/dns)
	// print once, combined, like the paper.
	results, err := hgw.Run(context.Background(), ids, opts...)
	var standalone hgw.Results
	for _, r := range results {
		if !r.IsTable2Component() {
			standalone = append(standalone, r)
		}
	}
	fmt.Print(standalone.Render())

	if *csvOut {
		if ok, csvErr := results.Table2CSV(os.Stdout); csvErr != nil {
			fmt.Fprintln(os.Stderr, "hgbench: table2 csv:", csvErr)
			os.Exit(1)
		} else if !ok {
			fmt.Fprintln(os.Stderr, "hgbench: -csv needs at least one of icmp, sctp, dccp, dns")
		}
	} else if table, ok := results.Table2(); ok {
		fmt.Printf("\n===== Table 2: ICMP / SCTP / DCCP / DNS combined =====\n")
		fmt.Print(table)
	}

	if *markdown {
		for _, r := range results {
			if r.Figure == nil {
				continue
			}
			fmt.Printf("\n===== %s (markdown) =====\n", r.Title)
			fmt.Print(r.Figure.Markdown())
		}
	}

	if report != nil {
		fmt.Printf("\n===== Run telemetry =====\n")
		fmt.Print(report.Render())
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "hgbench:", err)
		os.Exit(1)
	}
}
