package hgw

import (
	"hgw/internal/gateway"
	"hgw/internal/probe"
	"hgw/internal/report"
	"hgw/internal/sim"
	"hgw/internal/stats"
	"hgw/internal/testbed"
)

// Re-exported result and configuration types.
type (
	// Options tunes probe executions (iterations, search resolution,
	// transfer sizes).
	Options = probe.Options
	// DeviceResult is a per-device series of repeated measurements.
	DeviceResult = probe.DeviceResult
	// Figure is a rendered population result (devices ordered by
	// ascending median, like the paper's plots).
	Figure = report.Figure
	// DevicePoint is one device's summarized result; ShardError carries
	// the partial points salvaged from a faulted shard.
	DevicePoint = stats.DevicePoint
	// Throughput is a TCP-2/TCP-3 result for one device.
	Throughput = probe.Throughput
	// ICMPMatrix is one device's Table 2 ICMP section.
	ICMPMatrix = probe.ICMPMatrix
	// ConnResult is a pass/fail connectivity result (SCTP/DCCP).
	ConnResult = probe.ConnResult
	// DNSResult is a DNS proxy test result.
	DNSResult = probe.DNSResult
	// PortReuseResult is a UDP-4 observation.
	PortReuseResult = probe.PortReuseResult
	// PortReuseClass is the paper's UDP-4 classification.
	PortReuseClass = probe.PortReuseClass
	// QuirkResult reports the §4.4 IP-layer quirks.
	QuirkResult = probe.QuirkResult
	// KeepaliveResult reports whether 2-hour TCP keepalives held a
	// binding through one device.
	KeepaliveResult = probe.KeepaliveResult
	// HolePunchResult reports a UDP hole-punching attempt between two
	// NATed hosts.
	HolePunchResult = probe.HolePunchResult
	// NATMapResult is a STUN-style RFC 4787 mapping/filtering
	// classification of one device, with engine-vs-probe agreement.
	NATMapResult = probe.NATMapResult
	// PunchMatrixResult reports predicted vs. simulated traversal
	// success for one RFC 4787 behavior-class pair.
	PunchMatrixResult = probe.PunchMatrixResult
	// Profile describes one emulated gateway model.
	Profile = gateway.Profile
	// Testbed is the assembled Figure 1 environment, for custom
	// experiments beyond the paper's set.
	Testbed = testbed.Testbed
	// Node is one gateway under test within a Testbed.
	Node = testbed.Node
	// Sim is the discrete-event simulator driving a Testbed.
	Sim = sim.Sim
)

// The UDP-4 port classes (§4.1), re-exported for payload consumers.
const (
	PreserveAndReuse   = probe.PreserveAndReuse
	PreserveNewBinding = probe.PreserveNewBinding
	NoPreservation     = probe.NoPreservation
)

// Devices returns the 34 emulated gateway profiles (the paper's
// Table 1).
func Devices() []Profile { return gateway.Profiles() }

// DeviceTags returns the 34 device tags.
func DeviceTags() []string { return gateway.Tags() }

// UDP4Counts tallies UDP-4 classes like the paper's prose (27 preserve,
// of which 23 reuse and 4 rebind; 7 never preserve).
func UDP4Counts(results []PortReuseResult) (preserveReuse, preserveNew, noPreserve int) {
	for _, r := range results {
		switch r.Class {
		case probe.PreserveAndReuse:
			preserveReuse++
		case probe.PreserveNewBinding:
			preserveNew++
		default:
			noPreserve++
		}
	}
	return
}
