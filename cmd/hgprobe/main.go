// Command hgprobe runs registry experiments against selected gateway
// devices and prints them in the paper's style: one section per
// experiment, with the Table 2 components (icmp, sctp, dccp, dns)
// folded into one combined table like the paper's.
//
//	hgprobe -exp udp1 -tags je,ls1,owrt -iters 10
//	hgprobe -exp all -iters 5                # every table and figure
//	hgprobe -exp all -iters 100 -bytes 100000000   # paper-strength settings
//	hgprobe -exp icmp,sctp,dccp,dns -csv     # Table 2 as CSV
//	hgprobe -exp icmp,sctp,dccp,dns -maxprocs 1   # one at a time
//	hgprobe -exp udp1 -fleet 200 -shards 4   # synthetic fleet sweep
//	hgprobe -exp udp1 -fleet 200 -shards 4 -stats   # plus run telemetry
//	hgprobe -exp udp3 -fleet 200 -shards 4 -faults 0.5 -retries 2  # chaos
//
// -faults r enables deterministic fault injection: every gateway
// draws link flaps, loss windows, corruption windows, WAN blackholes
// and reboots at mean rate r per class from a seeded plan (equal
// seeds give byte-identical faulted output at any -maxprocs).
// -retries n gives each probe exchange a retry budget so experiments
// report degraded-but-valid figures under injected loss.
//
// Every id in hgw.Registry() works (hglist prints the catalog);
// -exp all runs the registry's default set. -json emits the result
// envelopes as JSON, -markdown appends markdown tables for the figure
// results, and -stats appends the deterministic run report (counters,
// gauges, histograms and sampled shard traces).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"hgw"
)

func main() {
	exp := flag.String("exp", "udp1", "comma-separated experiment ids (see hglist), or 'all' for the default set")
	tags := flag.String("tags", "", "comma-separated device tags (default all)")
	iters := flag.Int("iters", 3, "iterations per device (paper: 100)")
	seed := flag.Int64("seed", 1, "simulation seed")
	bytes := flag.Int("bytes", 8<<20, "transfer size for tcp2 (paper: 100 MB)")
	fleet := flag.Int("fleet", 0, "fleet mode: measure N synthetic devices instead of the 34-device inventory")
	shards := flag.Int("shards", 1, "partition the fleet across K concurrent sub-testbeds")
	maxprocs := flag.Int("maxprocs", 0, "max concurrent experiments or fleet shards (0 = NumCPU; output is identical at any value)")
	faults := flag.Float64("faults", 0, "fault injection: mean seeded faults per gateway per class (0 = off)")
	retries := flag.Int("retries", 0, "probe exchange retry budget under injected loss")
	jsonOut := flag.Bool("json", false, "emit result envelopes as JSON")
	csvOut := flag.Bool("csv", false, "emit Table 2 as CSV instead of the dot matrix")
	markdown := flag.Bool("markdown", false, "also emit markdown tables for figure results")
	statsOut := flag.Bool("stats", false, "print the run telemetry report after results")
	verbose := flag.Bool("v", false, "report per-experiment progress on stderr")
	flag.Parse()

	var ids []string // nil = the registry's default set
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	opts := []hgw.Option{
		hgw.WithSeed(*seed),
		hgw.WithIterations(*iters),
		hgw.WithTransferBytes(*bytes),
	}
	if *tags != "" {
		opts = append(opts, hgw.WithTags(strings.Split(*tags, ",")...))
	}
	if *faults > 0 {
		opts = append(opts, hgw.WithFaults(hgw.FaultSpec{Rate: *faults}))
	}
	if *retries > 0 {
		opts = append(opts, hgw.WithRetries(*retries))
	}
	if *maxprocs > 0 {
		opts = append(opts, hgw.WithMaxProcs(*maxprocs))
	}
	if *fleet > 0 {
		opts = append(opts, hgw.WithFleet(*fleet), hgw.WithShards(*shards))
		if *verbose {
			opts = append(opts, hgw.WithDeviceResults(func(ev hgw.DeviceEvent) {
				fmt.Fprintf(os.Stderr, "  %-10s shard %d %s done\n", ev.ExperimentID, ev.Shard, ev.Result.Tag)
			}))
		}
	}
	if *verbose {
		opts = append(opts, hgw.WithProgress(func(p hgw.Progress) {
			state := "start"
			if p.Done {
				state = "done"
			}
			if p.Kind == hgw.ProgressShard {
				fmt.Fprintf(os.Stderr, "[%d/%d] shard %-4d %s\n", p.Index+1, p.Total, p.Shard, state)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-10s %s\n", p.Index+1, p.Total, p.ID, state)
		}))
	}
	var report *hgw.RunReport
	if *statsOut {
		opts = append(opts, hgw.WithRunReport(func(rep *hgw.RunReport) { report = rep }))
	}

	// Print whatever completed before reporting a failure: Run returns
	// the finished results alongside the error.
	results, err := hgw.Run(context.Background(), ids, opts...)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(results); encErr != nil {
			fmt.Fprintln(os.Stderr, "hgprobe:", encErr)
			os.Exit(1)
		}
	} else {
		render(results, *csvOut, *markdown)
	}
	if report != nil {
		// With -json the report goes to stderr so stdout stays parseable.
		out := os.Stdout
		if *jsonOut {
			out = os.Stderr
		}
		fmt.Fprint(out, report.Render())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgprobe:", err)
		os.Exit(2)
	}
}

// render prints the results as text: every section but the Table 2
// components, then those once as the combined Table 2 (or its CSV),
// then, with markdown, each figure as a markdown table.
func render(results hgw.Results, csvOut, markdown bool) {
	var sections hgw.Results
	for _, r := range results {
		if !r.IsTable2Component() {
			sections = append(sections, r)
		}
	}
	fmt.Print(sections.Render())

	if csvOut {
		if ok, err := results.Table2CSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hgprobe: table2 csv:", err)
			os.Exit(1)
		} else if !ok {
			fmt.Fprintln(os.Stderr, "hgprobe: -csv needs at least one of icmp, sctp, dccp, dns")
		}
	} else if table, ok := results.Table2(); ok {
		fmt.Printf("\n===== Table 2: ICMP / SCTP / DCCP / DNS combined =====\n")
		fmt.Print(table)
	}

	if markdown {
		for _, r := range results {
			if r.Figure == nil {
				continue
			}
			fmt.Printf("\n===== %s (markdown) =====\n", r.Title)
			fmt.Print(r.Figure.Markdown())
		}
	}
}
