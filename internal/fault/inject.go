package fault

import (
	"math/rand"
	"time"

	"hgw/internal/netem"
	"hgw/internal/obs"
	"hgw/internal/sim"
)

// NodeFaults names the fault surfaces of one testbed node: the WAN
// link faults act on, and the gateway's reboot entry point. Either
// field may be nil; the corresponding event classes become no-ops.
type NodeFaults struct {
	WAN    *netem.Link
	Reboot func(downtime time.Duration)
}

// Injector executes a compiled plan against live nodes. It owns every
// fault event it fires (obs counters for injected faults are
// incremented here, not by the faulted components), and it nests
// overlapping windows: a link is down while ANY flap or blackhole
// window covers it and recovers only when the last one closes.
type Injector struct {
	s    *sim.Sim
	plan *Plan

	nodes        []NodeFaults
	downDepth    []int
	lossDepth    []int
	corruptDepth []int
}

// Install schedules every plan event on s against nodes. Events whose
// node index falls outside nodes are skipped, so a plan compiled for a
// larger fleet installs cleanly on a shard's slice. Each WAN link gets
// its own seeded fault rng (split off the plan seed), keeping
// per-frame loss draws deterministic and independent of the sim rng.
func (p *Plan) Install(s *sim.Sim, nodes []NodeFaults) *Injector {
	inj := &Injector{
		s:            s,
		plan:         p,
		nodes:        nodes,
		downDepth:    make([]int, len(nodes)),
		lossDepth:    make([]int, len(nodes)),
		corruptDepth: make([]int, len(nodes)),
	}
	for i := range nodes {
		if nodes[i].WAN != nil {
			nodes[i].WAN.SetFaultRand(rand.New(rand.NewSource(p.spec.Seed + 1 + int64(i))))
		}
	}
	for _, ev := range p.Events {
		if ev.Node < 0 || ev.Node >= len(nodes) {
			continue
		}
		ev := ev
		s.After(ev.At, func() { inj.fire(ev) })
	}
	return inj
}

func (inj *Injector) fire(ev Event) {
	n := &inj.nodes[ev.Node]
	r := inj.s.Obs()
	spec := inj.plan.spec
	switch ev.Kind {
	case KindFlap:
		r.Inc(obs.CFaultLinkFlaps)
		inj.linkDown(ev.Node, flapDown)
	case KindBlackhole:
		r.Inc(obs.CFaultBlackholes)
		inj.linkDown(ev.Node, blackholeDur)
	case KindLoss:
		if n.WAN == nil {
			return
		}
		r.Inc(obs.CFaultLossWindows)
		inj.lossDepth[ev.Node]++
		n.WAN.SetLoss(spec.LossP)
		inj.s.After(lossDur, func() {
			inj.lossDepth[ev.Node]--
			if inj.lossDepth[ev.Node] == 0 {
				n.WAN.SetLoss(0)
			}
		})
	case KindCorrupt:
		if n.WAN == nil {
			return
		}
		r.Inc(obs.CFaultCorruptWindows)
		inj.corruptDepth[ev.Node]++
		n.WAN.SetCorrupt(spec.LossP)
		inj.s.After(corruptDur, func() {
			inj.corruptDepth[ev.Node]--
			if inj.corruptDepth[ev.Node] == 0 {
				n.WAN.SetCorrupt(0)
			}
		})
	case KindReboot:
		if n.Reboot == nil {
			return
		}
		r.Inc(obs.CFaultReboots)
		n.Reboot(rebootDown)
	}
}

// linkDown opens a down window on the node's WAN link; nested windows
// extend the outage until the last one closes.
func (inj *Injector) linkDown(node int, dur time.Duration) {
	n := &inj.nodes[node]
	if n.WAN == nil {
		return
	}
	inj.downDepth[node]++
	n.WAN.SetDown(true)
	inj.s.After(dur, func() {
		inj.downDepth[node]--
		if inj.downDepth[node] == 0 {
			n.WAN.SetDown(false)
		}
	})
}
