// Package obs is the fixture stand-in for hgw/internal/obs: obslint
// resolves telemetry calls by function name and a package path ending
// in "obs", so these stubs bind the same way the real instruments do.
package obs

import "time"

type Counter int

const CSimEventsFired Counter = 0

type Histo int

const HNATBindingLifetime Histo = 0

type TraceKind int

const TraceDrop TraceKind = 0

type Registry struct{}

func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) Inc(c Counter)                                 {}
func (r *Registry) Add(c Counter, n uint64)                       {}
func (r *Registry) VecInc(v int, i int)                           {}
func (r *Registry) GaugeInc(g int)                                {}
func (r *Registry) GaugeDec(g int)                                {}
func (r *Registry) GaugeSet(g int, v int64)                       {}
func (r *Registry) Observe(h Histo, d time.Duration)              {}
func (r *Registry) Trace(k TraceKind, at time.Duration, a uint32) {}

type Snapshot struct {
	Counters []uint64
}

func (r *Registry) Snapshot() *Snapshot { return &Snapshot{} }

func Merge(snaps ...*Snapshot) *Snapshot { return &Snapshot{} }

func BucketBounds() []time.Duration { return nil }

type ProcStats struct{}

var Proc ProcStats

func (p *ProcStats) AddPool(gets, misses, puts, frameGets, framePuts uint64) {}

func (p *ProcStats) ShardUp() {}

type ProcSnapshot struct{}

func (p *ProcStats) Snapshot() ProcSnapshot { return ProcSnapshot{} }

func Now() time.Time { return time.Time{} }

func Since(t time.Time) time.Duration { return 0 }
