package hgw_test

// One benchmark per table and figure of the paper's evaluation section.
// Each regenerates the artifact end to end: testbed bring-up (DHCP on
// 34 WAN and 34 LAN segments), the §3.2 workload, and the population
// statistics. The reported metric is wall-clock per full regeneration;
// custom metrics carry the headline population numbers so a bench run
// doubles as a reproduction check.
//
//	go test -bench=. -benchmem
//
// Benchmarks use reduced iteration counts / transfer sizes so a full
// sweep stays fast; hgprobe -exp all -iters 100 -bytes 100000000 runs
// at paper strength. Everything runs through hgw.Run registry ids.

import (
	"context"
	"fmt"
	"testing"

	"hgw"
	"hgw/internal/probe"
	"hgw/internal/testbed"
)

var quickOpts = hgw.Options{Iterations: 1, TransferBytes: 2 << 20}

// benchRun executes one registry experiment with the quick settings
// and returns its result envelope.
func benchRun(b *testing.B, id string, seed int64, opts ...hgw.Option) *hgw.Result {
	b.Helper()
	base := []hgw.Option{hgw.WithSeed(seed), hgw.WithOptions(quickOpts)}
	results, err := hgw.Run(context.Background(), []string{id}, append(base, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return results[0]
}

func BenchmarkTable1_DeviceInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		devs := hgw.Devices()
		if len(devs) != 34 {
			b.Fatalf("devices = %d", len(devs))
		}
	}
}

func BenchmarkFigure3_UDP1(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		median = benchRun(b, "udp1", int64(i)).Figure.Median
	}
	b.ReportMetric(median, "pop-median-sec")
}

func BenchmarkFigure4_UDP2(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		median = benchRun(b, "udp2", int64(i)).Figure.Median
	}
	b.ReportMetric(median, "pop-median-sec")
}

func BenchmarkFigure5_UDP3(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		median = benchRun(b, "udp3", int64(i)).Figure.Median
	}
	b.ReportMetric(median, "pop-median-sec")
}

func BenchmarkFigure2_UDP123Combined(b *testing.B) {
	// Figure 2 overlays UDP-1/2/3; one registry run regenerates all
	// three series, each on a testbed of its own.
	for i := 0; i < b.N; i++ {
		if _, err := hgw.Run(context.Background(), []string{"udp1", "udp2", "udp3"},
			hgw.WithSeed(int64(i)), hgw.WithOptions(quickOpts)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUDP4_PortReuse(b *testing.B) {
	var pr, pn, np int
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "udp4", int64(i)).Payload.([]hgw.PortReuseResult)
		pr, pn, np = hgw.UDP4Counts(res)
	}
	b.ReportMetric(float64(pr), "preserve+reuse")
	b.ReportMetric(float64(pn), "preserve+new")
	b.ReportMetric(float64(np), "no-preserve")
}

func BenchmarkFigure6_UDP5(b *testing.B) {
	var dnsMedian float64
	for i := 0; i < b.N; i++ {
		figs := benchRun(b, "udp5", int64(i)).Payload.(map[string]hgw.Figure)
		dnsMedian = figs["dns"].Median
	}
	b.ReportMetric(dnsMedian, "dns-pop-median-sec")
}

func BenchmarkFigure7_TCP1(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		median = benchRun(b, "tcp1", int64(i)).Figure.Median
	}
	b.ReportMetric(median, "pop-median-min")
}

func BenchmarkFigure8_TCP2_Throughput(b *testing.B) {
	// Representative slice of the population: worst, asymmetric,
	// mid-range, wire speed.
	tags := []string{"dl10", "smc", "ls2", "bu1"}
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := benchRun(b, "tcp2", int64(i), hgw.WithTags(tags...)).Throughputs()
		if err != nil {
			b.Fatal(err)
		}
		worst = res[0].DownMbps
	}
	b.ReportMetric(worst, "dl10-down-mbps")
}

func BenchmarkFigure9_TCP3_Delay(b *testing.B) {
	tags := []string{"ng1", "dl10", "ls1"}
	var bloat float64
	for i := 0; i < b.N; i++ {
		res, err := benchRun(b, "tcp2", int64(i), hgw.WithTags(tags...)).Throughputs()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Tag == "ls1" {
				bloat = r.DelayDownMs
			}
		}
	}
	b.ReportMetric(bloat, "ls1-delay-ms")
}

func BenchmarkFigure10_TCP4_MaxBindings(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		median = benchRun(b, "tcp4", int64(i)).Figure.Median
	}
	b.ReportMetric(median, "pop-median-bindings")
}

func BenchmarkTable2_ICMPMatrix(b *testing.B) {
	var unfixed int
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "icmp", int64(i)).Payload.([]hgw.ICMPMatrix)
		unfixed = 0
		for _, m := range res {
			for k := range m.UDP {
				if m.UDP[k] == probe.VerdictInnerUnfixed || m.TCP[k] == probe.VerdictInnerUnfixed {
					unfixed++
					break
				}
			}
		}
	}
	b.ReportMetric(float64(unfixed), "inner-unfixed-devices")
}

func BenchmarkTable2_SCTP(b *testing.B) {
	var ok int
	for i := 0; i < b.N; i++ {
		ok = 0
		for _, r := range benchRun(b, "sctp", int64(i)).Payload.([]hgw.ConnResult) {
			if r.OK {
				ok++
			}
		}
	}
	b.ReportMetric(float64(ok), "sctp-pass-devices")
}

func BenchmarkTable2_DCCP(b *testing.B) {
	var ok int
	for i := 0; i < b.N; i++ {
		ok = 0
		for _, r := range benchRun(b, "dccp", int64(i)).Payload.([]hgw.ConnResult) {
			if r.OK {
				ok++
			}
		}
	}
	b.ReportMetric(float64(ok), "dccp-pass-devices")
}

func BenchmarkTable2_DNS(b *testing.B) {
	var accept, answer int
	for i := 0; i < b.N; i++ {
		accept, answer = 0, 0
		for _, r := range benchRun(b, "dns", int64(i)).Payload.([]hgw.DNSResult) {
			if r.TCPAccepts {
				accept++
			}
			if r.TCPAnswers {
				answer++
			}
		}
	}
	b.ReportMetric(float64(accept), "tcp53-accept-devices")
	b.ReportMetric(float64(answer), "tcp53-answer-devices")
}

func BenchmarkAblation_QuirkProbes(b *testing.B) {
	// §4.4 extras: TTL, Record Route, hairpinning, shared MACs.
	var hairpins int
	for i := 0; i < b.N; i++ {
		hairpins = 0
		for _, r := range benchRun(b, "quirks", int64(i)).Payload.([]hgw.QuirkResult) {
			if r.Hairpins {
				hairpins++
			}
		}
	}
	b.ReportMetric(float64(hairpins), "hairpin-devices")
}

func BenchmarkAblation_TestbedBringup(b *testing.B) {
	// Substrate cost: full 34-device Figure 1 topology with 68 DHCP
	// exchanges.
	for i := 0; i < b.N; i++ {
		tb, s := testbed.Run(testbed.Config{Seed: int64(i)})
		if len(tb.Nodes) != 34 {
			b.Fatal("bad testbed")
		}
		s.Shutdown()
	}
}

func BenchmarkAblation_SearchResolution(b *testing.B) {
	// Design-choice ablation (DESIGN.md §6): the paper converges its
	// binary search to 1 s. Coarser resolutions cost fewer probes but
	// blur the figures; this measures the full UDP-1 sweep at 5 s
	// resolution for comparison with BenchmarkFigure3_UDP1's 1 s.
	opts := quickOpts
	opts.Resolution = 5e9 // 5 s
	var median float64
	for i := 0; i < b.N; i++ {
		results, err := hgw.Run(context.Background(), []string{"udp1"},
			hgw.WithSeed(int64(i)), hgw.WithOptions(opts))
		if err != nil {
			b.Fatal(err)
		}
		median = results[0].Figure.Median
	}
	b.ReportMetric(median, "pop-median-sec")
}

func BenchmarkAblation_CoarseTimers(b *testing.B) {
	// Isolates the coarse-timer devices (we, al, je, ng5) whose refresh
	// quantisation produces the paper's wide UDP-2 quartiles; the
	// reported metric is the widest inter-quartile range observed.
	var widest float64
	for i := 0; i < b.N; i++ {
		f := benchRun(b, "udp2", int64(i),
			hgw.WithTags("we", "al", "je", "ng5"),
			hgw.WithOptions(hgw.Options{Iterations: 6})).Figure
		widest = 0
		for _, p := range f.Points {
			if iqr := p.IQR(); iqr > widest {
				widest = iqr
			}
		}
	}
	b.ReportMetric(widest, "max-iqr-sec")
}

// BenchmarkFleet regenerates a synthetic-fleet UDP-1 population figure
// end to end — profile sampling, sharded bring-up, the parallel sweep
// and the cross-shard merge — at several shard counts. More shards cut
// both wall-clock (shards probe concurrently) and total cost (each
// shard's working set, live heap and event queue stay small), so the
// sharded rows should beat shards=1 even on one core.
func BenchmarkFleet(b *testing.B) {
	const fleet = 256
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("devices=%d/shards=%d", fleet, shards), func(b *testing.B) {
			var median float64
			for i := 0; i < b.N; i++ {
				results, err := hgw.Run(context.Background(), []string{"udp1"},
					hgw.WithSeed(int64(i)), hgw.WithFleet(fleet), hgw.WithShards(shards),
					hgw.WithOptions(hgw.Options{Iterations: 1}))
				if err != nil {
					b.Fatal(err)
				}
				median = results[0].Figure.Median
			}
			b.ReportMetric(median, "pop-median-sec")
		})
	}
}
