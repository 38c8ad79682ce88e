package probe

import (
	"fmt"
	"net/netip"
	"time"

	"hgw/internal/gateway"
	"hgw/internal/nat"
	"hgw/internal/sim"
	"hgw/internal/testbed"
	"hgw/internal/udp"
)

// KeepaliveResult reports whether a TCP connection kept alive at a
// given probe interval survived an idle period through one device.
type KeepaliveResult struct {
	Tag      string
	Survived bool
}

// KeepaliveSurvival tests the paper's §4.4 observation that the
// standardized minimum TCP keepalive interval of two hours cannot
// reliably hold NAT bindings: for each device it opens a connection,
// enables keepalives at the given interval on both ends, idles for
// idleFor, and then checks whether the connection still passes data.
func KeepaliveSurvival(tb *testbed.Testbed, s *sim.Sim, interval, idleFor time.Duration, opts Options) []KeepaliveResult {
	opts = opts.withDefaults()
	if interval <= 0 {
		interval = 2 * time.Hour // RFC 1122's minimum default
	}
	if idleFor <= 0 {
		idleFor = 6 * time.Hour
	}
	results := make([]KeepaliveResult, len(tb.Nodes))
	RunPerDevice(tb, s, "tcp-keepalive", func(p *sim.Proc, n *testbed.Node) DeviceResult {
		port := uint16(tcpProbeBasePort + 300 + n.Index)
		lis, err := tb.Server.TCP.Listen(port)
		if err != nil {
			panic(err)
		}
		defer lis.Close()
		survived := false
		c, err := tb.Client.TCP.Connect(p, n.ServerAddr, port, 0, 15*time.Second)
		if err == nil {
			sc, err2 := lis.Accept(p, 5*time.Second)
			if err2 == nil {
				c.SetKeepAlive(interval)
				p.Sleep(idleFor)
				if err := sc.Write(p, []byte("still-there?")); err == nil {
					var buf [64]byte
					n, err := c.Read(p, buf[:], verdictGrace+3*time.Second)
					survived = err == nil && n > 0
				}
				sc.Abort()
			}
			c.SetKeepAlive(0)
			c.Abort()
		}
		results[n.Index-1] = KeepaliveResult{Tag: n.Tag, Survived: survived}
		return DeviceResult{Tag: n.Tag}
	})
	return results
}

// HolePunchResult reports a UDP hole-punching attempt between two LAN
// hosts, each behind a different gateway.
type HolePunchResult struct {
	TagA, TagB string
	// Success means both directions passed traffic peer-to-peer.
	Success bool
	// ExtA and ExtB are the external endpoints each side predicted from
	// the rendezvous observation.
	ExtA, ExtB netip.AddrPort
}

// HolePunch runs the classic UDP hole-punching procedure (Ford et al.,
// cited in the paper's §2) between a host behind tb's first gateway and
// one behind its second, using the test server as the rendezvous point:
//
//  1. both hosts send to the rendezvous from a local port, which
//     observes their translated (external) endpoints;
//  2. each host then fires packets from the same local port at the
//     other's external endpoint, opening an outbound binding that the
//     peer's packets can ride in on.
//
// With the address-and-port-dependent, port-preserving NATs that
// dominate the paper's population this succeeds; NATs that do not
// preserve ports allocate a fresh external port for the peer flow and
// the punch fails — reproducing the success/failure split the paper's
// related work reports. The gateways need not be in the Table 1
// inventory: the punchmatrix experiment punches through synthetic RFC
// 4787 behavior classes (PunchProfiles).
func HolePunch(tb *testbed.Testbed, s *sim.Sim) HolePunchResult {
	nA, nB := tb.Nodes[0], tb.Nodes[1]
	res := HolePunchResult{TagA: nA.Tag, TagB: nB.Tag}

	const rendezvousPort = 3478 // STUN's well-known port, in homage
	rvA, err := tb.Server.UDP.BindIf(nA.ServerIf, rendezvousPort)
	if err != nil {
		panic(err)
	}
	rvB, err := tb.Server.UDP.BindIf(nB.ServerIf, rendezvousPort)
	if err != nil {
		panic(err)
	}

	done := s.Spawn("holepunch", func(p *sim.Proc) {
		hostA, err := tb.AddLANHost(p, nA, "peerA")
		if err != nil {
			return
		}
		hostB, err := tb.AddLANHost(p, nB, "peerB")
		if err != nil {
			return
		}
		sockA, err := hostA.UDP.Bind(netip.Addr{}, 41000)
		if err != nil {
			return
		}
		sockB, err := hostB.UDP.Bind(netip.Addr{}, 42000)
		if err != nil {
			return
		}

		// Step 1: rendezvous observes both external endpoints.
		sockA.SendTo(nA.ServerAddr, rendezvousPort, []byte("register-A"))
		dA, ok := rvA.Recv(p, 2*time.Second)
		if !ok {
			return
		}
		sockB.SendTo(nB.ServerAddr, rendezvousPort, []byte("register-B"))
		dB, ok := rvB.Recv(p, 2*time.Second)
		if !ok {
			return
		}
		res.ExtA = netip.AddrPortFrom(dA.From, dA.FromPort)
		res.ExtB = netip.AddrPortFrom(dB.From, dB.FromPort)

		// Step 2: simultaneous punch. Each side sends a few packets from
		// the same local port toward the peer's observed external
		// endpoint (the first in each direction may die against a
		// not-yet-open binding).
		for i := 0; i < 3; i++ {
			sockA.SendTo(res.ExtB.Addr(), res.ExtB.Port(), []byte(fmt.Sprintf("punch-A-%d", i)))
			sockB.SendTo(res.ExtA.Addr(), res.ExtA.Port(), []byte(fmt.Sprintf("punch-B-%d", i)))
			p.Sleep(50 * time.Millisecond)
		}
		recvFrom := func(sock *udp.Conn, peer byte) bool {
			deadline := p.Now() + 2*time.Second
			for p.Now() < deadline {
				d, ok := sock.Recv(p, deadline-p.Now())
				if !ok {
					return false
				}
				if len(d.Data) > 6 && d.Data[6] == peer {
					return true
				}
			}
			return false
		}
		gotA := recvFrom(sockA, 'B')
		gotB := recvFrom(sockB, 'A')
		res.Success = gotA && gotB
	})
	s.Run(0)
	if !s.Interrupted() && !done.Exited() {
		panic("probe: holepunch stalled")
	}
	return res
}

// PunchClass is one RFC 4787 behavior class in the punchmatrix sweep.
type PunchClass struct {
	Label     string
	Mapping   nat.MappingBehavior
	Filtering nat.FilteringBehavior
	Alloc     nat.PortAllocBehavior
}

// Preserving reports whether the class's allocator preserves the
// internal source port (what makes a symmetric NAT's punched port
// predictable anyway).
func (c PunchClass) Preserving() bool { return c.Alloc == nat.PortAllocPreserving }

// PunchClasses is the default sweep set: the three classic "cone"
// classes (EIM with progressively stricter filtering), the symmetric
// class with fresh sequential ports, and the symmetric port-preserving
// class the paper's population actually exhibits.
var PunchClasses = []PunchClass{
	{"eim-eif", nat.MappingEndpointIndependent, nat.FilteringEndpointIndependent, nat.PortAllocSequential},
	{"eim-adf", nat.MappingEndpointIndependent, nat.FilteringAddressDependent, nat.PortAllocSequential},
	{"eim-apdf", nat.MappingEndpointIndependent, nat.FilteringAddressAndPortDependent, nat.PortAllocSequential},
	{"apdm-apdf", nat.MappingAddressAndPortDependent, nat.FilteringAddressAndPortDependent, nat.PortAllocSequential},
	{"apdm-apdf-pp", nat.MappingAddressAndPortDependent, nat.FilteringAddressAndPortDependent, nat.PortAllocPreserving},
}

// PunchMatrixResult reports one behavior-class pair of the sweep: the
// analytic prediction (nat.PredictTraversal), the simulated outcome,
// and whether they agree.
type PunchMatrixResult struct {
	ClassA, ClassB string
	Predicted      bool
	Simulated      bool
	Agree          bool
	// ExtA and ExtB are the rendezvous-observed external endpoints of
	// the simulated attempt, for diagnostics.
	ExtA, ExtB netip.AddrPort
}

// PunchPairs lists every unordered pair of the given behavior classes,
// each class paired with itself and every later one, in sweep order.
func PunchPairs(classes []PunchClass) [][2]PunchClass {
	var out [][2]PunchClass
	for i, ca := range classes {
		for _, cb := range classes[i:] {
			out = append(out, [2]PunchClass{ca, cb})
		}
	}
	return out
}

// PunchProfiles returns the synthetic gateways of a punchmatrix pair,
// class ca's first: the profiles of the two-gateway testbed PunchPair
// punches through.
func PunchProfiles(ca, cb PunchClass) []gateway.Profile {
	return []gateway.Profile{
		gateway.BehaviorProfile(ca.Label+"-a", ca.Mapping, ca.Filtering, ca.Alloc),
		gateway.BehaviorProfile(cb.Label+"-b", cb.Mapping, cb.Filtering, cb.Alloc),
	}
}

// PunchPair punches a UDP hole between hosts behind gateways of
// classes ca and cb, on tb built from PunchProfiles(ca, cb), and
// checks the simulated outcome against the analytic traversal
// prediction.
func PunchPair(ca, cb PunchClass, tb *testbed.Testbed, s *sim.Sim) PunchMatrixResult {
	hp := HolePunch(tb, s)
	r := PunchMatrixResult{
		ClassA:    ca.Label,
		ClassB:    cb.Label,
		Predicted: nat.PredictTraversal(ca.Mapping, ca.Filtering, ca.Preserving(), cb.Mapping, cb.Filtering, cb.Preserving()),
		Simulated: hp.Success,
		ExtA:      hp.ExtA,
		ExtB:      hp.ExtB,
	}
	r.Agree = r.Predicted == r.Simulated
	return r
}
