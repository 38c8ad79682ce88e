// Package clean holds obslint's sanctioned idioms: nil-safe writes on
// every instrument class, registry construction, and ProcStats write
// methods — the full write-only surface deterministic packages use.
package clean

import (
	"time"

	"obs"
)

type engine struct {
	r *obs.Registry
}

func (e *engine) translate() {
	e.r.Inc(obs.CSimEventsFired)
	e.r.Add(obs.CSimEventsFired, 2)
	e.r.VecInc(0, 3)
	e.r.GaugeInc(0)
	e.r.GaugeDec(0)
	e.r.GaugeSet(0, 12)
	e.r.Observe(obs.HNATBindingLifetime, time.Second)
	e.r.Trace(obs.TraceDrop, time.Second, 1)
}

func attach() *obs.Registry {
	return obs.NewRegistry()
}

func poolTraffic() {
	obs.Proc.AddPool(2, 1, 2, 1, 1)
	obs.Proc.ShardUp()
}

// Referencing obs types (fields, parameters) is not a read: only calls
// off the write allowlist are.
func holds(r *obs.Registry, s *obs.Snapshot) {}
