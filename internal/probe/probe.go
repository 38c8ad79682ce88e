// Package probe implements the paper's measurement methodology (§3.2):
// the modified binary search for binding timeouts, the five UDP binding
// tests, the four TCP tests, the ICMP translation matrix, SCTP/DCCP
// connectivity, the DNS proxy tests, and the IP-layer quirk checks.
//
// Probers are written as straight-line code executed inside simulator
// processes. The paper's management link — the out-of-band channel
// coordinating testrund on client and server — is realized by the
// orchestrating process holding direct references to both endpoints.
package probe

import (
	"time"

	"hgw/internal/sim"
	"hgw/internal/stats"
	"hgw/internal/testbed"
)

// The probes' fixed method constants (§3.2).
const (
	// maxUDPTimeout bounds the UDP binding-timeout searches, above
	// the longest UDP timeout in the Table 1 calibration (691 s).
	maxUDPTimeout = 20 * time.Minute
	// maxTCPTimeout is the TCP-1 cut-off (paper: 24 h): devices whose
	// idle bindings outlive it report it.
	maxTCPTimeout = 24 * time.Hour
	// verdictGrace is how long a probe waits before deciding a
	// response is not coming.
	verdictGrace = 2 * time.Second
)

// Options tunes probe executions.
type Options struct {
	// Iterations is the number of repeated measurements per device
	// (each figure's legend states the paper's count, e.g. "Median;
	// 100 Iter."). Defaults to 5.
	Iterations int
	// Resolution is the binary-search convergence bound (paper: 1 s).
	// It is the one search parameter left settable: the
	// search-resolution ablation (DESIGN.md §6) varies it.
	Resolution time.Duration
	// TransferBytes sizes the TCP-2 bulk transfers (paper: 100 MB;
	// default here 8 MB to keep test runs quick — benchmarks override).
	TransferBytes int
	// Retries is the per-exchange retry budget for probe setup traffic
	// under injected loss (fault plans): a lost binding-create exchange
	// is retried with exponential backoff instead of failing the whole
	// measurement, so faulted runs report degraded-but-valid figures.
	// 0 (the default) disables retries — unfaulted runs are unchanged.
	Retries int
}

// Normalized returns the options with every zero field replaced by its
// default, so semantically equal option sets compare (and hash) equal:
// a zero Options and an explicit {Iterations: 5} run the same probes.
func (o Options) Normalized() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 5
	}
	if o.Resolution <= 0 {
		o.Resolution = time.Second
	}
	if o.TransferBytes <= 0 {
		o.TransferBytes = 8 << 20
	}
	return o
}

// TimeoutSample is one measured binding timeout.
type TimeoutSample = time.Duration

// DeviceResult is a per-device series of repeated measurements in
// float64 "plot units" (seconds, Mb/s, msec or count, depending on the
// experiment).
type DeviceResult struct {
	Tag     string
	Samples []float64
}

// Summary returns the stats summary of the samples.
func (r DeviceResult) Summary() stats.Summary { return stats.Summarize(r.Samples) }

// Point converts to a stats.DevicePoint.
func (r DeviceResult) Point() stats.DevicePoint {
	return stats.DevicePoint{Tag: r.Tag, Summary: r.Summary()}
}

// RunPerDevice spawns fn as one simulator process per node (the paper
// runs each measurement in parallel across all gateways), waits for all
// to finish, and returns their results keyed by tag order of tb.Nodes.
// It must be called from outside the simulator (it calls s.Run).
//
// When the simulator's interrupt fires mid-run (the driver abandoned
// the measurement, e.g. on context cancellation), RunPerDevice returns
// nil: the results are incomplete and the testbed is mid-measurement,
// so the caller must discard both.
func RunPerDevice(tb *testbed.Testbed, s *sim.Sim, name string,
	fn func(p *sim.Proc, n *testbed.Node) DeviceResult) []DeviceResult {

	results := make([]DeviceResult, len(tb.Nodes))
	procs := make([]*sim.Proc, len(tb.Nodes))
	for i, n := range tb.Nodes {
		i, n := i, n
		procs[i] = s.Spawn(name+"-"+n.Tag, func(p *sim.Proc) {
			results[i] = fn(p, n)
		})
	}
	s.Run(0)
	if s.Interrupted() {
		return nil
	}
	for i, pr := range procs {
		if !pr.Exited() {
			panic("probe: " + name + " stalled on " + tb.Nodes[i].Tag)
		}
	}
	return results
}

// dropDelta subtracts a before-probe snapshot of Engine.DropCounts
// from an after-probe one, so results attribute only the drops the
// probe itself caused (experiments sweeping the same fleet shard would
// otherwise leak their drops into later results).
func dropDelta(before, after map[string]int) map[string]int {
	out := make(map[string]int)
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// binarySearch runs the paper's modified binary search: alive(t) must
// create a fresh binding, idle it for t, and report whether it still
// relays traffic. The search keeps the longest observed lifetime and
// the shortest observed expiration and probes their midpoint until they
// are within resolution; it returns the shortest expiration (== the
// timeout, for exact timers). If the binding is still alive at max, max
// is returned with capped=true.
func binarySearch(alive func(t time.Duration) bool, lo0, max, resolution time.Duration) (timeout time.Duration, capped bool) {
	// Bracket: grow until a sleep kills the binding.
	lo := time.Duration(0) // longest alive
	hi := time.Duration(0) // shortest expired
	t := lo0
	if t <= 0 {
		t = 15 * time.Second
	}
	for {
		if alive(t) {
			lo = t
			if t >= max {
				return max, true
			}
			t *= 2
			if t > max {
				t = max
			}
			continue
		}
		hi = t
		break
	}
	// Bisect.
	for hi-lo > resolution {
		mid := lo + (hi-lo)/2
		if alive(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, false
}
