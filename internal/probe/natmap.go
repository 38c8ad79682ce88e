package probe

import (
	"fmt"
	"net/netip"
	"time"

	"hgw/internal/nat"
	"hgw/internal/sim"
	"hgw/internal/testbed"
	"hgw/internal/udp"
)

// natmapPort is the first server-side listener port of the NATMap
// probe; natmapPort+1 is the same-address/different-port listener.
const natmapPort = 7800

// natmapLocalPort is the probe's (and blocker's) LAN-side source port;
// natmapLocalPort+2 is the filtering probe's source port.
const natmapLocalPort = 47001

// NATMapResult is one device's STUN-style RFC 4787 classification,
// recovered entirely from the outside (a LAN host probing two
// server-side addresses), plus the engine's configured ground truth
// for the engine-vs-probe agreement check.
type NATMapResult struct {
	Tag string

	// Mapping and Filtering are the probe-recovered classes.
	Mapping   nat.MappingBehavior
	Filtering nat.FilteringBehavior

	// ConfiguredMapping and ConfiguredFiltering are the engine's
	// ground truth (the defaulted policy's axes).
	ConfiguredMapping   nat.MappingBehavior
	ConfiguredFiltering nat.FilteringBehavior

	// MappingAgrees / FilteringAgrees report probe-vs-engine agreement.
	MappingAgrees   bool
	FilteringAgrees bool

	// MapPorts are the external ports observed toward (A1:P1, A1:P2,
	// A2:P1) during the mapping probe, for diagnostics.
	MapPorts [3]uint16

	// Drops holds the per-reason drop counters this probe added to the
	// engine (the delta of Engine.DropCounts across the probe), so
	// classification failures are diagnosable rather than silent: the
	// filtering probe legitimately increments the udp-no-binding /
	// udp-filtered reasons on APDF/ADF devices.
	Drops map[string]int
}

// Classes renders the recovered classes in conventional shorthand.
func (r NATMapResult) Classes() string {
	return r.Mapping.Short() + "/" + r.Filtering.Short()
}

// SelfTraversal predicts whether UDP hole punching succeeds between
// two hosts behind identical devices of the recovered class;
// preserving says whether the device's allocator preserves internal
// source ports (the UDP-4 observation).
func (r NATMapResult) SelfTraversal(preserving bool) bool {
	return nat.PredictTraversal(r.Mapping, r.Filtering, preserving, r.Mapping, r.Filtering, preserving)
}

// NATMap recovers each device's RFC 4787 mapping and filtering class
// from the outside, like a STUN-style behavior-discovery client
// (RFC 5780), and compares it against the engine's configured policy:
//
//  1. A blocker host behind the gateway first claims the probe's
//     source port as an external port. Port-preserving NATs would
//     otherwise overload one preserved port across destination
//     endpoints, making every mapping behavior look
//     endpoint-independent from the outside — with the preserved port
//     taken, distinct mappings must draw distinct allocator ports.
//  2. The probe host then sends, from one socket, to three server
//     endpoints — (A1,P1), (A1,P2) and (A2,P1), where A2 is a second
//     server-side address on the node's WAN segment (AddWANHost) —
//     and compares the externally observed ports: all equal is EIM,
//     equal across ports of A1 only is ADM, distinct is APDM.
//  3. A fresh socket opens one session toward (A1,P1); the server
//     then probes its external port from (A1,P2) and (A2,P1). Both
//     delivered is EIF, the same-address probe only is ADF, neither
//     is APDF.
func NATMap(tb *testbed.Testbed, s *sim.Sim, opts Options) []NATMapResult {
	opts = opts.withDefaults()
	results := make([]NATMapResult, len(tb.Nodes))
	RunPerDevice(tb, s, "natmap", func(p *sim.Proc, n *testbed.Node) DeviceResult {
		r := natMapOne(p, tb, n, opts)
		results[n.Index-1] = r
		return DeviceResult{Tag: n.Tag}
	})
	return results
}

func natMapOne(p *sim.Proc, tb *testbed.Testbed, n *testbed.Node, opts Options) NATMapResult {
	r := NATMapResult{Tag: n.Tag}
	pol := n.Dev.Engine.Policy()
	r.ConfiguredMapping = pol.Mapping
	r.ConfiguredFiltering = pol.Filtering
	dropsBefore := n.Dev.Engine.DropCounts()

	// Second server-side address on the node's WAN segment.
	aux, auxAddr, err := tb.AddWANHost(p, n, "natmap-aux-"+n.Tag)
	if err != nil {
		panic("probe: natmap: " + err.Error())
	}

	// Server-side listeners: (A1,P1), (A1,P2), (A2,P1).
	s1, err := tb.Server.UDP.BindIf(n.ServerIf, natmapPort)
	if err != nil {
		panic(fmt.Sprintf("probe: natmap server bind %s: %v", n.Tag, err))
	}
	defer s1.Close()
	s2, err := tb.Server.UDP.BindIf(n.ServerIf, natmapPort+1)
	if err != nil {
		panic(fmt.Sprintf("probe: natmap server bind %s: %v", n.Tag, err))
	}
	defer s2.Close()
	a1, err := aux.UDP.Bind(netip.Addr{}, natmapPort)
	if err != nil {
		panic(fmt.Sprintf("probe: natmap aux bind %s: %v", n.Tag, err))
	}
	defer a1.Close()

	// LAN-side hosts: the blocker and the probe proper.
	blocker, err := tb.AddLANHost(p, n, "natmap-blk-"+n.Tag)
	if err != nil {
		panic("probe: natmap: " + err.Error())
	}
	host, err := tb.AddLANHost(p, n, "natmap-"+n.Tag)
	if err != nil {
		panic("probe: natmap: " + err.Error())
	}

	// Step 1: the blocker claims the probe's source port externally.
	blk, err := blocker.UDP.Bind(netip.Addr{}, natmapLocalPort)
	if err != nil {
		panic(err)
	}
	defer blk.Close()
	blk.SendTo(n.ServerAddr, natmapPort, []byte("natmap-block"))
	if _, ok := s1.Recv(p, verdictGrace); !ok {
		panic("probe: natmap blocker packet lost on " + n.Tag)
	}

	// Step 2: mapping probe — one socket, three destination endpoints.
	sock, err := host.UDP.Bind(netip.Addr{}, natmapLocalPort)
	if err != nil {
		panic(err)
	}
	defer sock.Close()
	observe := func(dst netip.Addr, dport uint16, srv *udp.Conn, what string) (netip.Addr, uint16) {
		sock.SendTo(dst, dport, []byte("natmap-"+what))
		d, ok := srv.Recv(p, verdictGrace)
		if !ok {
			panic(fmt.Sprintf("probe: natmap %s observation lost on %s", what, n.Tag))
		}
		return d.From, d.FromPort
	}
	wan1, e1 := observe(n.ServerAddr, natmapPort, s1, "m1")
	_, e2 := observe(n.ServerAddr, natmapPort+1, s2, "m2")
	_, e3 := observe(auxAddr, natmapPort, a1, "m3")
	r.MapPorts = [3]uint16{e1, e2, e3}
	switch {
	case e1 == e2 && e2 == e3:
		r.Mapping = nat.MappingEndpointIndependent
	case e1 == e2:
		r.Mapping = nat.MappingAddressDependent
	default:
		r.Mapping = nat.MappingAddressAndPortDependent
	}

	// Step 3: filtering probe — a fresh socket with exactly one
	// session, probed from the two other server endpoints.
	fsock, err := host.UDP.Bind(netip.Addr{}, natmapLocalPort+2)
	if err != nil {
		panic(err)
	}
	defer fsock.Close()
	fsock.SendTo(n.ServerAddr, natmapPort, []byte("natmap-f0"))
	d, ok := s1.Recv(p, verdictGrace)
	if !ok {
		panic("probe: natmap filter session lost on " + n.Tag)
	}
	extF := d.FromPort
	s2.SendTo(wan1, extF, []byte("fprobe-port"))
	a1.SendTo(wan1, extF, []byte("fprobe-addr"))
	var fromPort, fromAddr bool
	deadline := p.Now() + verdictGrace + time.Second
	for p.Now() < deadline {
		d, ok := fsock.Recv(p, deadline-p.Now())
		if !ok {
			break
		}
		switch string(d.Data) {
		case "fprobe-port":
			fromPort = true
		case "fprobe-addr":
			fromAddr = true
		}
		if fromPort && fromAddr {
			break
		}
	}
	switch {
	case fromAddr:
		r.Filtering = nat.FilteringEndpointIndependent
	case fromPort:
		r.Filtering = nat.FilteringAddressDependent
	default:
		r.Filtering = nat.FilteringAddressAndPortDependent
	}

	r.MappingAgrees = r.Mapping == r.ConfiguredMapping
	r.FilteringAgrees = r.Filtering == r.ConfiguredFiltering
	r.Drops = dropDelta(dropsBefore, n.Dev.Engine.DropCounts())
	return r
}
