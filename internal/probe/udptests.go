package probe

import (
	"fmt"
	"net/netip"
	"time"

	"hgw/internal/sim"
	"hgw/internal/testbed"
	"hgw/internal/udp"
)

// UDPMode selects among the paper's UDP binding-timeout scenarios.
type UDPMode int

// The three traffic patterns of §3.2.1.
const (
	// UDPSolitary is UDP-1: one outbound packet, then silence.
	UDPSolitary UDPMode = iota
	// UDPInbound is UDP-2: one outbound packet, then inbound traffic.
	UDPInbound
	// UDPEcho is UDP-3: every inbound packet triggers an outbound one.
	UDPEcho
)

// String implements fmt.Stringer.
func (m UDPMode) String() string {
	switch m {
	case UDPSolitary:
		return "UDP-1"
	case UDPInbound:
		return "UDP-2"
	case UDPEcho:
		return "UDP-3"
	}
	return fmt.Sprintf("UDPMode(%d)", int(m))
}

// udpProbeBasePort is where per-device probe responders listen.
const udpProbeBasePort = 7000

// UDPTimeouts measures UDP binding timeouts for all testbed nodes in
// parallel using mode's traffic pattern against the given server port
// (0 = the default probe port). It returns per-device samples in
// seconds.
func UDPTimeouts(tb *testbed.Testbed, s *sim.Sim, mode UDPMode, serverPort uint16, opts Options) []DeviceResult {
	opts = opts.withDefaults()
	return RunPerDevice(tb, s, "udp-timeout", func(p *sim.Proc, n *testbed.Node) DeviceResult {
		port := serverPort
		if port == 0 {
			port = udpProbeBasePort
		}
		srv, err := tb.Server.UDP.BindIf(n.ServerIf, port)
		if err != nil {
			panic(fmt.Sprintf("probe: server bind %s:%d: %v", n.Tag, port, err))
		}
		defer srv.Close()
		cli, err := tb.Client.UDP.Dial(n.ServerAddr, port)
		if err != nil {
			panic("probe: client dial: " + err.Error())
		}
		defer cli.Close()

		res := DeviceResult{Tag: n.Tag}
		for it := 0; it < opts.Iterations; it++ {
			// Random phase offset so coarse-timer devices show their
			// quantisation across iterations.
			p.Sleep(time.Duration(s.Rand().Int63n(int64(5 * time.Second))))
			sample, _ := binarySearch(func(t time.Duration) bool {
				return udpAlive(p, tb, n, cli, srv, mode, t, opts)
			}, 15*time.Second, maxUDPTimeout, opts.Resolution)
			res.Samples = append(res.Samples, sample.Seconds())
		}
		return res
	})
}

// udpAlive performs one probe of the modified binary search: create a
// fresh binding, apply the mode's traffic pattern with an idle gap of
// t, and report whether the binding still relays traffic.
func udpAlive(p *sim.Proc, tb *testbed.Testbed, n *testbed.Node,
	cli, srv *udp.Conn, mode UDPMode, t time.Duration, opts Options) bool {

	// Let any binding from the previous probe expire, so every probe
	// starts from the identical (no-binding) state — the paper's
	// "modified" search property.
	p.Sleep(maxUDPTimeout + time.Minute)
	cli.Drain()
	srv.Drain()

	// The binding-create exchange retries under opts.Retries (fault
	// plans inject frame loss; a lost create would otherwise fail the
	// whole probe): each attempt re-sends, which at worst refreshes the
	// just-created binding before the idle period starts.
	var from netip.Addr
	var fport uint16
	created := retry(p, opts.Retries, func(int) bool {
		if !cli.Send([]byte("probe-create")) {
			return false
		}
		d, ok := srv.Recv(p, verdictGrace)
		if !ok {
			return false
		}
		from, fport = d.From, d.FromPort
		return true
	})
	if !created {
		return false // binding never came up
	}

	var ok bool
	switch mode {
	case UDPSolitary:
		p.Sleep(t)
		srv.SendTo(from, fport, []byte("verdict"))
		_, ok = cli.Recv(p, verdictGrace)
		return ok

	case UDPInbound:
		// Prime the binding's inbound state quickly, then idle for t.
		p.Sleep(time.Second)
		srv.SendTo(from, fport, []byte("prime"))
		if _, ok = cli.Recv(p, verdictGrace); !ok {
			return false
		}
		p.Sleep(t)
		srv.SendTo(from, fport, []byte("verdict"))
		_, ok = cli.Recv(p, verdictGrace)
		return ok

	case UDPEcho:
		// Prime with an inbound packet that the client echoes, putting
		// the binding into its bidirectional state, then idle for t.
		p.Sleep(time.Second)
		srv.SendTo(from, fport, []byte("prime"))
		if _, ok = cli.Recv(p, verdictGrace); !ok {
			return false
		}
		cli.Send([]byte("echo"))
		if _, ok = srv.Recv(p, verdictGrace); !ok {
			return false
		}
		p.Sleep(t)
		srv.SendTo(from, fport, []byte("verdict"))
		_, ok = cli.Recv(p, verdictGrace)
		return ok
	}
	return false
}

// UDP5Services are the well-known destination ports of the paper's
// Figure 6, in its series order.
var UDP5Services = []struct {
	Name string
	Port uint16
}{
	{"dns", 53},
	{"http", 80},
	{"ntp", 123},
	{"snmp", 161},
	{"tftp", 69},
}

// UDP5 runs the per-service timeout measurement (UDP-5 is "identical to
// UDP-2, but tests different well-known server ports"). The result maps
// service name to per-device results.
func UDP5(tb *testbed.Testbed, s *sim.Sim, opts Options) map[string][]DeviceResult {
	out := make(map[string][]DeviceResult, len(UDP5Services))
	for _, svc := range UDP5Services {
		out[svc.Name] = UDPTimeouts(tb, s, UDPInbound, svc.Port, opts)
	}
	return out
}

// PortReuseClass is the paper's UDP-4 classification.
type PortReuseClass int

// UDP-4 behavior classes (§4.1: 23 devices preserve and reuse, 4
// preserve but create a new binding after expiry, 7 never preserve).
const (
	PreserveAndReuse PortReuseClass = iota
	PreserveNewBinding
	NoPreservation
)

// String implements fmt.Stringer.
func (c PortReuseClass) String() string {
	switch c {
	case PreserveAndReuse:
		return "preserve+reuse"
	case PreserveNewBinding:
		return "preserve+new-binding"
	case NoPreservation:
		return "no-preservation"
	}
	return "?"
}

// PortReuseResult is one device's UDP-4 observation.
type PortReuseResult struct {
	Tag           string
	Class         PortReuseClass
	ObservedPorts []uint16 // external ports across re-created bindings
	SourcePort    uint16   // the client's unchanging source port
}

// PortReuse observes external port selection and expired-binding reuse
// (UDP-4). The behavior "is observed from the UDP-1 test": a fixed
// 5-tuple is re-bound after each expiry and the external port compared.
func PortReuse(tb *testbed.Testbed, s *sim.Sim, opts Options) []PortReuseResult {
	opts = opts.withDefaults()
	results := make([]PortReuseResult, len(tb.Nodes))
	RunPerDevice(tb, s, "udp-portreuse", func(p *sim.Proc, n *testbed.Node) DeviceResult {
		srv, err := tb.Server.UDP.BindIf(n.ServerIf, udpProbeBasePort+1)
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		cli, err := tb.Client.UDP.Dial(n.ServerAddr, udpProbeBasePort+1)
		if err != nil {
			panic(err)
		}
		defer cli.Close()

		// First find the binding timeout (UDP-4 "is observed from the
		// UDP-1 test"), so each re-creation happens immediately after the
		// previous binding expires — within any reuse-quarantine window.
		timeout, _ := binarySearch(func(t time.Duration) bool {
			return udpAlive(p, tb, n, cli, srv, UDPSolitary, t, opts)
		}, 15*time.Second, maxUDPTimeout, opts.Resolution)
		p.Sleep(maxUDPTimeout + time.Minute) // clean slate

		r := PortReuseResult{Tag: n.Tag, SourcePort: cli.LocalPort()}
		for i := 0; i < 3; i++ {
			cli.Send([]byte("probe"))
			d, ok := srv.Recv(p, verdictGrace)
			if !ok {
				break
			}
			r.ObservedPorts = append(r.ObservedPorts, d.FromPort)
			// Sleep just past expiry (plus coarse-timer slack).
			p.Sleep(timeout + 50*time.Second)
		}
		r.Class = classifyPorts(r.SourcePort, r.ObservedPorts)
		results[n.Index-1] = r
		return DeviceResult{Tag: n.Tag}
	})
	return results
}

func classifyPorts(src uint16, obs []uint16) PortReuseClass {
	if len(obs) == 0 {
		return NoPreservation
	}
	preservedFirst := obs[0] == src
	changed := false
	for i := 1; i < len(obs); i++ {
		if obs[i] != obs[i-1] {
			changed = true
		}
	}
	switch {
	case preservedFirst && !changed:
		return PreserveAndReuse
	case preservedFirst || containsPort(obs, src):
		return PreserveNewBinding
	default:
		return NoPreservation
	}
}

func containsPort(ports []uint16, p uint16) bool {
	for _, x := range ports {
		if x == p {
			return true
		}
	}
	return false
}
