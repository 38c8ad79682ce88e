package gateway

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hgw/internal/nat"
	"hgw/internal/stats"
)

// This file grows the paper's fixed 34-device inventory into device
// populations of arbitrary size. SynthStream samples profile parameters
// from the empirical distributions the paper publishes — the UDP-1/2/3
// timeout CDFs of Figures 3-5, the TCP-1 timeouts of Figure 7, the
// throughput and buffering classes of Figures 8-9, the binding caps of
// Figure 10, and the ICMP/SCTP/DCCP/DNS behavior-class frequencies of
// Table 2 — all of which are encoded in profileRows. Sampling strategy
// (see DESIGN.md §7):
//
//   - Continuous parameters draw from the inverse of the empirical CDF
//     with linear interpolation between order statistics, so at large N
//     the sampled population medians converge on the paper's published
//     medians (90/180/181 s for UDP-1/2/3).
//   - UDP-1 and UDP-3 share one quantile draw (comonotone sampling):
//     every Table 1 device has UDP-3 >= UDP-1, which order statistics
//     preserve, so no synthetic device gets a bidirectional timeout
//     shorter than its outbound-only timeout. UDP-2 draws
//     independently, as in the inventory (e.g. ls1: 380 s vs 691 s).
//   - Categorical behavior draws a donor row per behavior group and
//     copies the group wholesale. Grouping preserves the real joint
//     structure (a device that drops unknown protocols tends to also
//     have minimal ICMP handling), and donor frequencies reproduce the
//     paper's class counts in expectation: 23/4/7 UDP-4 port classes,
//     Table 2's 18/34 SCTP, 14/34 DNS-over-TCP, and the §4.4 quirk
//     rates.
//   - TCP-1 keeps the paper's 7/34 beyond-24 h mass as an explicit
//     atom, with the remaining draws from the 27 finite timeouts.
//   - Binding caps (Figure 10 is log-scaled) sample in log space.

// SynthTagPrefix prefixes every synthetic device tag ("syn0001", ...),
// keeping them disjoint from the Table 1 tags.
const SynthTagPrefix = "syn"

// empirical is a sorted sample supporting inverse-CDF draws.
type empirical []float64

// at returns the u-quantile of the sample, linearly interpolated.
func (e empirical) at(u float64) float64 { return stats.Quantile(e, u) }

// logged returns the sample transformed into log space, for parameters
// the paper plots on a log axis; draw with at + math.Exp.
func (e empirical) logged() empirical {
	logs := make(empirical, len(e))
	for i, v := range e {
		logs[i] = math.Log(v)
	}
	return logs
}

// population collects the calibration marginals of profileRows once.
type population struct {
	udp1, udp2, udp3 empirical
	tcp1FinLog       empirical // finite TCP-1 timeouts, log minutes
	tcp1Over24       float64   // fraction of devices beyond the 24 h cut-off
	maxTCPLog        empirical
	rows             []profileRow
}

func newPopulation() *population {
	p := &population{rows: profileRows}
	var tcp1Fin, maxTCP empirical
	for _, r := range profileRows {
		p.udp1 = append(p.udp1, float64(r.udp1))
		p.udp2 = append(p.udp2, float64(r.udp2))
		p.udp3 = append(p.udp3, float64(r.udp3))
		if r.tcp1Min == 0 {
			p.tcp1Over24++
		} else {
			tcp1Fin = append(tcp1Fin, r.tcp1Min)
		}
		maxTCP = append(maxTCP, float64(r.maxTCP))
	}
	p.tcp1Over24 /= float64(len(profileRows))
	p.tcp1FinLog = tcp1Fin.logged()
	p.maxTCPLog = maxTCP.logged()
	return p
}

// donor picks a uniform Table 1 row to copy a behavior group from.
func (p *population) donor(rng *rand.Rand) profileRow {
	return p.rows[rng.Intn(len(p.rows))]
}

// jitter scales v by a uniform factor in [1-spread, 1+spread].
func jitter(rng *rand.Rand, v, spread float64) float64 {
	return v * (1 + spread*(2*rng.Float64()-1))
}

// synthRow samples one synthetic device's calibration record. The draw
// order is fixed; changing it changes every fleet sampled after the
// altered field, so append new fields at the end.
func (p *population) synthRow(rng *rand.Rand, seq int, seed int64) profileRow {
	r := profileRow{
		tag:    fmt.Sprintf("%s%04d", SynthTagPrefix, seq),
		vendor: "Synthetic",
		model:  fmt.Sprintf("Population-%04d", seq),
		fw:     fmt.Sprintf("synth/seed=%d", seed),
	}

	// Binding timeouts: one quantile for the UDP-1/UDP-3 pair, an
	// independent one for UDP-2.
	ut := rng.Float64()
	r.udp1 = int(math.Round(p.udp1.at(ut)))
	r.udp3 = int(math.Round(p.udp3.at(ut)))
	r.udp2 = int(math.Round(p.udp2.at(rng.Float64())))

	// Timer granularity and the per-service (UDP-5) override follow a
	// donor, preserving the 4/34 coarse-timer and 1/34 dl8 rates.
	timers := p.donor(rng)
	r.granularity = timers.granularity
	r.dnsUDPTimeout = timers.dnsUDPTimeout

	// UDP-4 port class: donor frequencies are 23/4/7.
	r.ports = p.donor(rng).ports

	// TCP-1: the beyond-24 h devices are an atom, not a tail.
	if rng.Float64() >= p.tcp1Over24 {
		r.tcp1Min = math.Exp(p.tcp1FinLog.at(rng.Float64()))
	}
	r.maxTCP = int(math.Round(math.Exp(p.maxTCPLog.at(rng.Float64()))))

	// Forwarding-plane class: copy the donor's (rate, contention,
	// delay) triple so slow devices keep their correlated bufferbloat,
	// then jitter the non-zero rates so fleets are not 34 repeated
	// columns. Wire-speed devices (13/34) stay exactly wire speed.
	perf := p.donor(rng)
	r.upMbps, r.downMbps = perf.upMbps, perf.downMbps
	r.bidirFactor = perf.bidirFactor
	r.delayMs = perf.delayMs
	if r.upMbps > 0 {
		r.upMbps = jitter(rng, r.upMbps, 0.15)
		r.downMbps = jitter(rng, r.downMbps, 0.15)
		r.delayMs = int(math.Max(1, math.Round(jitter(rng, float64(r.delayMs), 0.15))))
	}

	// Table 2 behavior triple: unknown-protocol fallback, ICMP class
	// and DNS proxy mode come from one donor, keeping their joint
	// frequencies.
	behavior := p.donor(rng)
	r.unknown = behavior.unknown
	r.icmp = behavior.icmp
	r.dnsTCP = behavior.dnsTCP

	// §4.4 quirks, jointly from one donor.
	quirks := p.donor(rng)
	r.sameMAC = quirks.sameMAC
	r.noTTLDec = quirks.noTTLDec
	r.honorRR = quirks.honorRR
	r.hairpin = quirks.hairpin
	return r
}

// SynthStream samples synthetic device profiles from the paper's
// population distributions, deterministically from seed, in shard-sized
// chunks, so fleet runners never materialize millions of profiles up
// front. It is one rng sequence: concatenating Next calls of any sizes
// yields exactly NewSynthStream(seed).Next(total), so a device's
// profile is a pure function of (seed, fleet index) — how the fleet is
// chunked (and therefore sharded) cannot perturb any device's draws,
// and a fleet is a prefix of every longer fleet with the same seed. A SynthStream is not safe for concurrent use; chunk producers
// serialize on it in fleet order.
type SynthStream struct {
	pop  *population
	rng  *rand.Rand
	seed int64
	next int // 0-based fleet index of the next device
}

// NewSynthStream starts the profile stream for a fleet seed.
func NewSynthStream(seed int64) *SynthStream {
	return &SynthStream{pop: newPopulation(), rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Next returns the next n profiles of the stream, in fleet order.
func (st *SynthStream) Next(n int) []Profile {
	if n <= 0 {
		return nil
	}
	out := make([]Profile, n)
	for i := range out {
		st.next++
		out[i] = st.pop.synthRow(st.rng, st.next, st.seed).build()
	}
	return out
}

// BehaviorProfile builds a neutral wire-speed gateway profile with the
// given RFC 4787 behavior classes: generous timeouts, no forwarding
// bottleneck, no quirks. The punchmatrix experiment and the behavior
// property tests use it to isolate the mapping/filtering/allocation
// axes from the rest of a device's personality.
func BehaviorProfile(tag string, m nat.MappingBehavior, f nat.FilteringBehavior, alloc nat.PortAllocBehavior) Profile {
	return Profile{
		Tag: tag, Vendor: "Synthetic", Model: "rfc4787", Firmware: m.Short() + "x" + f.Short(),
		NAT: nat.Policy{
			UDP:                 nat.UDPTimeouts{Outbound: 120 * time.Second, Inbound: 180 * time.Second, Bidir: 180 * time.Second},
			Mapping:             m,
			Filtering:           f,
			PortAlloc:           alloc,
			ReuseExpiredBinding: true,
			TCPEstablished:      time.Hour,
			ICMPTCP:             nat.AllICMP(nat.ICMPTranslate),
			ICMPUDP:             nat.AllICMP(nat.ICMPTranslate),
			ICMPEcho:            nat.ICMPTranslate,
			UnknownProto:        nat.UnknownTranslateIPOnly,
			DecrementTTL:        true,
		},
		BidirFactor: 1.0,
		BufBytes:    64 << 10,
	}
}
