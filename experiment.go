package hgw

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"hgw/internal/probe"
	"hgw/internal/report"
	"hgw/internal/testbed"
)

// Experiment describes one measurement in the registry: the paper
// artifact it reproduces, how it renders, what testbed it needs, and
// the function that runs it.
type Experiment struct {
	// ID is the registry key ("udp1", "icmp", "holepunch", ...).
	ID string
	// Title is the paper-style headline.
	Title string
	// Unit is the primary figure's measurement unit, when there is one.
	Unit string
	// Ref names the paper artifact ("Figure 3", "Table 2", "§4.4").
	Ref string
	// Note quotes the paper's headline numbers, printed next to the
	// measured result by reporting front-ends.
	Note string
	// LogScale renders the figure on a log axis (Figures 7 and 10).
	LogScale bool
	// Standalone experiments run on testbeds of their own (per device,
	// mode or pair) instead of a shared one; their Env carries a nil
	// Testbed. The built-in ones get each from the Runner (Env.each),
	// as a domain like any other, so their Run works only when a Runner
	// calls it.
	Standalone bool
	// ExplicitOnly excludes the experiment from DefaultIDs (fig2
	// duplicates udp1-3; bindrate/keepalive/holepunch go beyond the
	// paper's evaluation section).
	ExplicitOnly bool
	// Run executes the experiment. It must be deterministic given the
	// Env and may be called concurrently with other experiments (never
	// concurrently on the same Testbed). A Standalone experiment's Run
	// fails unless a Runner built its Env.
	Run func(ctx context.Context, env *Env) (*Result, error)
	// Sweep, when non-nil, runs the experiment's per-device measurement
	// over every node of env.Testbed and returns the raw samples. It is
	// what fleet mode executes per shard: the Runner merges the shards'
	// device results into one population Figure instead of calling Run.
	// Experiments without a population sweep (Table 2 matrices,
	// standalone throughput runs) cannot run in fleet mode.
	Sweep func(env *Env) []DeviceResult
}

// Env is the execution environment the Runner hands to an experiment:
// the run's device selection, seed and probe options, plus the shared
// testbed (nil for Standalone experiments, which get theirs from each).
type Env struct {
	Tags    []string
	Seed    int64
	Options Options
	Testbed *Testbed
	Sim     *Sim

	// testbeds implements each; only a Runner sets it (Runner.testbeds).
	testbeds eachFunc
}

// eachFunc is the signature of Env.each.
type eachFunc func(ctx context.Context, n int, cfg func(i int) testbed.Config,
	fn func(i int, tb *Testbed, s *Sim) error) error

// each runs fn(i, tb, s) for i < n, each on a fresh testbed built from
// cfg(i) as a domain of its own (Runner.testbeds); fn writes its results
// by index. Only a Standalone experiment run by a Runner may call it: a
// shared-testbed experiment's domain already holds a slot, and at
// maxProcs 1 it would wait for itself.
func (env *Env) each(ctx context.Context, n int, cfg func(i int) testbed.Config, fn func(i int, tb *Testbed, s *Sim) error) error {
	if env.testbeds == nil {
		return errors.New("hgw: a Standalone experiment runs only under a Runner")
	}
	return env.testbeds(ctx, n, cfg, fn)
}

// result wraps an experiment's output in the uniform envelope.
func (e *Experiment) result(fig *Figure, payload any, text string) *Result {
	return &Result{ID: e.ID, Title: e.Title, Unit: e.Unit, Ref: e.Ref, Note: e.Note,
		Figure: fig, Payload: payload, text: text}
}

// figureExp builds a shared-testbed experiment whose result is a single
// population Figure.
func figureExp(id, title, unit, ref, note string, logScale, explicitOnly bool,
	fn func(env *Env) []probe.DeviceResult) *Experiment {

	e := &Experiment{ID: id, Title: title, Unit: unit, Ref: ref, Note: note,
		LogScale: logScale, ExplicitOnly: explicitOnly, Sweep: fn}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		fig := report.NewFigure(title, unit, fn(env))
		return e.result(&fig, nil, fig.Render(50, logScale)), nil
	}
	return e
}

// linesExp builds a shared-testbed experiment that renders one line per
// device plus an optional trailer.
func linesExp[T any](id, title, unit, ref, note string,
	probeFn func(env *Env) []T,
	line func(T) string,
	trailer func([]T) string) *Experiment {

	e := &Experiment{ID: id, Title: title, Unit: unit, Ref: ref, Note: note}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		res := probeFn(env)
		var sb strings.Builder
		for _, r := range res {
			sb.WriteString(line(r) + "\n")
		}
		if trailer != nil {
			sb.WriteString(trailer(res))
		}
		return e.result(nil, res, sb.String()), nil
	}
	return e
}

func init() {
	for _, e := range builtinExperiments() {
		Register(e)
	}
}

// builtinExperiments defines the paper's evaluation artifacts plus the
// extensions (bindrate, keepalive, holepunch), in presentation order.
func builtinExperiments() []*Experiment {
	return []*Experiment{
		newFig2Experiment(),
		figureExp("udp1", "UDP-1: single packet, outbound only (Figure 3)", "sec", "Figure 3",
			"paper: je et al. 30 s ... ls1 691 s; pop. median 90.00, mean 160.41", false, false,
			func(env *Env) []probe.DeviceResult {
				return probe.UDPTimeouts(env.Testbed, env.Sim, probe.UDPSolitary, 0, env.Options)
			}),
		figureExp("udp2", "UDP-2: single packet out, multiple packets in (Figure 4)", "sec", "Figure 4",
			"paper: min 54 s; pop. median 180.00, mean 174.67", false, false,
			func(env *Env) []probe.DeviceResult {
				return probe.UDPTimeouts(env.Testbed, env.Sim, probe.UDPInbound, 0, env.Options)
			}),
		figureExp("udp3", "UDP-3: multiple packets out- and inbound (Figure 5)", "sec", "Figure 5",
			"paper: pop. median 181.00, mean 225.94", false, false,
			func(env *Env) []probe.DeviceResult {
				return probe.UDPTimeouts(env.Testbed, env.Sim, probe.UDPEcho, 0, env.Options)
			}),
		newUDP4Experiment(),
		newUDP5Experiment(),
		figureExp("tcp1", "TCP-1: TCP binding timeouts (Figure 7)", "min", "Figure 7",
			"paper: be1 239 s shortest; 7 devices > 24 h; pop. median 59.98 min, mean 386.46 min", true, false,
			func(env *Env) []probe.DeviceResult {
				return probe.TCPTimeouts(env.Testbed, env.Sim, env.Options)
			}),
		newThroughputExperiment(),
		figureExp("tcp4", "TCP-4: max bindings to a single server port (Figure 10)", "count", "Figure 10",
			"paper: dl9/smc 16; ng1/ap ca. 1024; pop. median 135.50, mean 259.21", true, false,
			func(env *Env) []probe.DeviceResult {
				return probe.MaxBindings(env.Testbed, env.Sim, env.Options)
			}),
		newICMPExperiment(),
		linesExp("sctp", "SCTP association establishment (Table 2)", "", "Table 2",
			"paper: SCTP works through 18 devices",
			func(env *Env) []probe.ConnResult {
				return probe.SCTPConnect(env.Testbed, env.Sim, env.Options)
			},
			func(r probe.ConnResult) string { return fmt.Sprintf("%-5s sctp=%v", r.Tag, r.OK) },
			nil),
		linesExp("dccp", "DCCP connection establishment (Table 2)", "", "Table 2",
			"paper: DCCP works through 0 devices",
			func(env *Env) []probe.ConnResult {
				return probe.DCCPConnect(env.Testbed, env.Sim, env.Options)
			},
			func(r probe.ConnResult) string { return fmt.Sprintf("%-5s dccp=%v", r.Tag, r.OK) },
			nil),
		linesExp("dns", "DNS proxy behavior (Table 2)", "", "Table 2",
			"paper: 14 devices accept TCP/53, 10 answer, ap forwards upstream over UDP",
			func(env *Env) []probe.DNSResult {
				return probe.DNSProxy(env.Testbed, env.Sim, env.Options)
			},
			func(r probe.DNSResult) string {
				return fmt.Sprintf("%-5s udp=%v tcp-accept=%v tcp-answer=%v via-udp=%v",
					r.Tag, r.UDPAnswers, r.TCPAccepts, r.TCPAnswers, r.TCPViaUDP)
			},
			nil),
		linesExp("quirks", "§4.4 quirks: TTL, Record Route, hairpinning, shared MACs", "", "§4.4", "",
			func(env *Env) []probe.QuirkResult {
				return probe.IPQuirks(env.Testbed, env.Sim, env.Options)
			},
			func(r probe.QuirkResult) string {
				return fmt.Sprintf("%-5s ttl-dec=%-5v record-route=%-5v hairpin=%-5v same-mac=%-5v drops=%s",
					r.Tag, r.DecrementsTTL, r.RecordsRoute, r.Hairpins, r.SameMAC, FormatDrops(r.Drops))
			},
			nil),
		figureExp("bindrate", "Binding-creation rate (§5 future work)", "bindings/sec", "§5", "", false, true,
			func(env *Env) []probe.DeviceResult {
				return probe.BindRate(env.Testbed, env.Sim, 2e9, env.Options) // 2 s of virtual time
			}),
		newKeepaliveExperiment(),
		newHolePunchExperiment(),
		newNATMapExperiment(),
		newPunchMatrixExperiment(),
	}
}

// FormatDrops renders a drop-counter map (QuirkResult.Drops,
// NATMapResult.Drops, Engine drop deltas) compactly and
// deterministically: comma-joined "reason:count" sorted by reason,
// "-" when empty. The quirks and natmap renders use it; reporting
// front-ends should too, so drop lines stay grep-compatible.
func FormatDrops(drops map[string]int) string {
	if len(drops) == 0 {
		return "-"
	}
	reasons := make([]string, 0, len(drops))
	for k := range drops {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	var sb strings.Builder
	for i, k := range reasons {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s:%d", k, drops[k])
	}
	return sb.String()
}

// newNATMapExperiment classifies each device's RFC 4787 mapping and
// filtering behavior from the outside, STUN-style, and validates the
// probe against the engine's configured policy.
func newNATMapExperiment() *Experiment {
	return linesExp("natmap", "RFC 4787 mapping/filtering classification (STUN-style)", "", "§2",
		"engine-vs-probe agreement: Table 1 is uniformly APDM/APDF (symmetric)",
		func(env *Env) []probe.NATMapResult {
			return probe.NATMap(env.Testbed, env.Sim, env.Options)
		},
		func(r probe.NATMapResult) string {
			return fmt.Sprintf("%-5s probe=%-10s configured=%-10s agree=%-5v ports=%v",
				r.Tag, r.Classes(), r.ConfiguredMapping.Short()+"/"+r.ConfiguredFiltering.Short(),
				r.MappingAgrees && r.FilteringAgrees, r.MapPorts)
		},
		func(rs []probe.NATMapResult) string {
			mapOK, filtOK := 0, 0
			for _, r := range rs {
				if r.MappingAgrees {
					mapOK++
				}
				if r.FilteringAgrees {
					filtOK++
				}
			}
			return fmt.Sprintf("agreement: mapping %d/%d, filtering %d/%d\n", mapOK, len(rs), filtOK, len(rs))
		})
}

// newPunchMatrixExperiment sweeps hole punching over pairs of RFC 4787
// behavior classes on synthetic gateways and reports predicted vs.
// simulated traversal success. Tags are ignored: the sweep set is the
// behavior classes themselves, not inventory devices.
func newPunchMatrixExperiment() *Experiment {
	e := &Experiment{ID: "punchmatrix",
		Title: "Traversal success by RFC 4787 behavior-class pair (predicted vs. simulated)",
		Ref:   "§2", Standalone: true, ExplicitOnly: true,
		Note: "EIM x EIF punches; APDM x APDF with fresh ports fails without port prediction; port preservation rescues it"}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		pairs := probe.PunchPairs(probe.PunchClasses)
		res := make([]probe.PunchMatrixResult, len(pairs))
		err := env.each(ctx, len(pairs),
			func(i int) testbed.Config {
				return testbed.Config{Profiles: probe.PunchProfiles(pairs[i][0], pairs[i][1]), Seed: env.Seed}
			},
			func(i int, tb *Testbed, s *Sim) error {
				res[i] = probe.PunchPair(pairs[i][0], pairs[i][1], tb, s)
				return nil
			})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		agree := 0
		fmt.Fprintf(&sb, "%-13s %-13s %-9s %-9s %s\n", "classA", "classB", "predicted", "simulated", "agree")
		for _, r := range res {
			if r.Agree {
				agree++
			}
			fmt.Fprintf(&sb, "%-13s %-13s %-9v %-9v %v\n", r.ClassA, r.ClassB, r.Predicted, r.Simulated, r.Agree)
		}
		fmt.Fprintf(&sb, "prediction agreement: %d/%d pairs\n", agree, len(res))
		return e.result(nil, res, sb.String()), nil
	}
	return e
}

// newFig2Experiment overlays the UDP-1/2/3 series, ordered by the
// UDP-1 medians like the paper's Figure 2. It is Standalone and runs
// each sweep on a fresh testbed of the run's tags and seed, so its
// columns reproduce the standalone udp1/udp2/udp3 figures exactly.
func newFig2Experiment() *Experiment {
	e := &Experiment{ID: "fig2", Title: "Figure 2: UDP-1/2/3 combined (ordered by UDP-1)",
		Unit: "sec", Ref: "Figure 2", Standalone: true, ExplicitOnly: true}
	sweeps := []struct {
		name string
		mode probe.UDPMode
	}{{"UDP-1", probe.UDPSolitary}, {"UDP-2", probe.UDPInbound}, {"UDP-3", probe.UDPEcho}}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		res := make([]Figure, len(sweeps))
		err := env.each(ctx, len(sweeps), func(int) testbed.Config { return testbed.Config{Tags: env.Tags, Seed: env.Seed} },
			func(i int, tb *Testbed, s *Sim) error {
				res[i] = report.NewFigure(sweeps[i].name, "sec", probe.UDPTimeouts(tb, s, sweeps[i].mode, 0, env.Options))
				return nil
			})
		if err != nil {
			return nil, err
		}
		figs := map[string]Figure{}
		series := map[string]map[string]float64{}
		for i, st := range sweeps {
			figs[st.name] = res[i]
			series[st.name] = map[string]float64{}
			for _, p := range res[i].Points {
				series[st.name][p.Tag] = p.Median
			}
		}
		order := figs["UDP-1"].Order()
		text := report.MultiSeries(e.Title, e.Unit, order, series, []string{"UDP-1", "UDP-2", "UDP-3"})
		return e.result(nil, figs, text), nil
	}
	return e
}

func newUDP4Experiment() *Experiment {
	e := &Experiment{ID: "udp4", Title: "UDP-4: binding and port-pair reuse (§4.1)", Ref: "§4.1",
		Note: "paper: 23 preserve+reuse, 4 preserve+new, 7 no-preservation"}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		res := probe.PortReuse(env.Testbed, env.Sim, env.Options)
		var sb strings.Builder
		for _, r := range res {
			fmt.Fprintf(&sb, "%-5s %-22s src=%d observed=%v\n", r.Tag, r.Class, r.SourcePort, r.ObservedPorts)
		}
		pr, pn, np := UDP4Counts(res)
		fmt.Fprintf(&sb, "counts: preserve+reuse=%d preserve+new=%d no-preservation=%d\n", pr, pn, np)
		return e.result(nil, res, sb.String()), nil
	}
	return e
}

func newUDP5Experiment() *Experiment {
	e := &Experiment{ID: "udp5", Title: "UDP-5: per-service binding timeouts (Figure 6)",
		Unit: "sec", Ref: "Figure 6",
		Note: "paper: timeouts mostly port-independent; dl8 shortens the DNS port"}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		raw := probe.UDP5(env.Testbed, env.Sim, env.Options)
		figs := make(map[string]Figure, len(raw))
		for name, res := range raw {
			figs[name] = report.NewFigure("UDP-5 ("+name+")", "sec", res)
		}
		var sb strings.Builder
		for _, name := range sortedFigureNames(figs) {
			sb.WriteString(figs[name].Render(50, false))
		}
		return e.result(nil, figs, sb.String()), nil
	}
	return e
}

func newICMPExperiment() *Experiment {
	e := &Experiment{ID: "icmp", Title: "ICMP error translation matrix (Table 2)", Ref: "Table 2",
		Note: "paper: 16 devices leave embedded headers untranslated; 2 corrupt embedded checksums"}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		res := probe.ICMPMatrixProbe(env.Testbed, env.Sim, env.Options)
		return e.result(nil, res, report.Table2(res, nil, nil, nil)), nil
	}
	return e
}

// newThroughputExperiment runs the TCP-2 bulk transfers and TCP-3
// embedded-timestamp delay measurement, each device on fresh testbeds
// of its own (as the paper does), probe.ThroughputRuns per device.
func newThroughputExperiment() *Experiment {
	e := &Experiment{ID: "tcp2", Title: "TCP-2/TCP-3: throughput and queuing delay (Figures 8 & 9)",
		Ref: "Figures 8-9", Standalone: true,
		Note: "paper: 13 devices at wire speed; dl10/ls1 worst; best delay ~2 ms, ls1 110 ms"}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		tags := env.Tags
		if len(tags) == 0 {
			tags = DeviceTags()
		}
		// Testbed i makes run i%runs of device i/runs.
		const runs = probe.ThroughputRuns
		res := make([]Throughput, len(tags))
		for i, tag := range tags {
			res[i].Tag = tag
		}
		err := env.each(ctx, len(tags)*runs,
			func(i int) testbed.Config { return testbed.Config{Tags: tags[i/runs : i/runs+1], Seed: env.Seed} },
			func(i int, tb *Testbed, s *Sim) error {
				return throughputRun(i%runs, tb, s, env.Options, &res[i/runs])
			})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-5s %9s %9s %9s %9s %9s %9s\n", "tag", "up", "down", "biUp", "biDown", "dlyUp", "dlyDown")
		for _, r := range res {
			fmt.Fprintf(&sb, "%-5s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
				r.Tag, r.UpMbps, r.DownMbps, r.BiUpMbps, r.BiDownMbps, r.DelayUpMs, r.DelayDownMs)
		}
		fig8, fig9 := throughputSeries(res)
		sb.WriteString(report.MultiSeries("Figure 8: TCP throughput", "Mb/s",
			orderThroughput(res, func(t Throughput) float64 { return t.DownMbps }),
			fig8, []string{"Upload", "Download", "Up|Down", "Down|Up"}))
		sb.WriteString(report.MultiSeries("Figure 9: queuing delay", "msec",
			orderThroughput(res, func(t Throughput) float64 { return t.DelayDownMs }),
			fig9, []string{"Upload", "Download", "Up|Down", "Down|Up"}))
		return e.result(nil, res, sb.String()), nil
	}
	return e
}

// throughputRun is tcp2's per-testbed run; tests replace it to watch
// how many run at once.
var throughputRun = probe.ThroughputRun

func orderThroughput(res []Throughput, key func(Throughput) float64) []string {
	cp := append([]Throughput(nil), res...)
	sort.Slice(cp, func(i, j int) bool { return key(cp[i]) < key(cp[j]) })
	out := make([]string, len(cp))
	for i, r := range cp {
		out[i] = r.Tag
	}
	return out
}

func newKeepaliveExperiment() *Experiment {
	e := &Experiment{ID: "keepalive", Title: "TCP keepalives at the RFC 1122 2 h minimum (§4.4)",
		Ref: "§4.4", ExplicitOnly: true,
		Note: "paper: \"many\" devices drop kept-alive idle connections; half time out under 1 h"}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		res := probe.KeepaliveSurvival(env.Testbed, env.Sim, 0, 0, env.Options)
		var sb strings.Builder
		fail := 0
		for _, r := range res {
			if !r.Survived {
				fail++
				fmt.Fprintf(&sb, "%-5s binding lost despite keepalives\n", r.Tag)
			}
		}
		fmt.Fprintf(&sb, "%d of %d devices drop a kept-alive idle connection\n", fail, len(res))
		return e.result(nil, res, sb.String()), nil
	}
	return e
}

// defaultHolePunchPairs mixes port-preserving and non-preserving
// devices so both outcomes appear.
var defaultHolePunchPairs = [][2]string{
	{"owrt", "bu1"}, {"owrt", "smc"}, {"dl2", "dl6"}, {"smc", "zy1"},
}

// newHolePunchExperiment punches UDP holes between LAN hosts behind
// pairs of gateways. With selected tags, consecutive tags form the
// pairs (so the tag count must be even); without tags, the default
// pair list runs.
func newHolePunchExperiment() *Experiment {
	e := &Experiment{ID: "holepunch", Title: "UDP hole punching (related work, Ford et al.)",
		Ref: "§2", Standalone: true, ExplicitOnly: true,
		Note: "punching succeeds between port-preserving NATs and fails when either side allocates fresh ports"}
	e.Run = func(ctx context.Context, env *Env) (*Result, error) {
		pairs := defaultHolePunchPairs
		if len(env.Tags) > 0 {
			if len(env.Tags)%2 != 0 {
				return nil, fmt.Errorf("holepunch pairs consecutive tags and needs an even number, got %d (%q unpaired)",
					len(env.Tags), env.Tags[len(env.Tags)-1])
			}
			pairs = nil
			for i := 0; i+1 < len(env.Tags); i += 2 {
				pairs = append(pairs, [2]string{env.Tags[i], env.Tags[i+1]})
			}
		}
		res := make([]HolePunchResult, len(pairs))
		err := env.each(ctx, len(pairs),
			func(i int) testbed.Config { return testbed.Config{Tags: pairs[i][:], Seed: env.Seed} },
			func(i int, tb *Testbed, s *Sim) error {
				res[i] = probe.HolePunch(tb, s)
				return nil
			})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		for _, r := range res {
			fmt.Fprintf(&sb, "%-5s <-> %-5s success=%v (extA=%v extB=%v)\n",
				r.TagA, r.TagB, r.Success, r.ExtA, r.ExtB)
		}
		return e.result(nil, res, sb.String()), nil
	}
	return e
}
