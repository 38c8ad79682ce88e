package gateway

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hgw/internal/nat"
)

// TestSynthesizeBehaviorsPreservesBase: the behavior overlay must not
// perturb the base profile stream — a behavior-annotated fleet is the
// plain fleet plus classes.
func TestSynthesizeBehaviorsPreservesBase(t *testing.T) {
	base := NewSynthStream(5).Next(64)
	mixed := synthesizeBehaviors(64, 5, defaultBehaviorMix)
	if len(mixed) != len(base) {
		t.Fatalf("len = %d, want %d", len(mixed), len(base))
	}
	for i := range base {
		b, m := base[i], mixed[i]
		m.NAT.Mapping, m.NAT.Filtering = b.NAT.Mapping, b.NAT.Filtering
		if !reflect.DeepEqual(b, m) {
			t.Fatalf("device %d: base profile perturbed by behavior overlay:\n%+v\n%+v", i, b, m)
		}
	}
}

func TestSynthesizeBehaviorsDeterministicAndMixed(t *testing.T) {
	a := synthesizeBehaviors(256, 9, defaultBehaviorMix)
	b := synthesizeBehaviors(256, 9, defaultBehaviorMix)
	counts := map[[2]int]int{}
	for i := range a {
		if a[i].NAT.Mapping != b[i].NAT.Mapping || a[i].NAT.Filtering != b[i].NAT.Filtering {
			t.Fatalf("device %d: behavior draw not deterministic", i)
		}
		counts[[2]int{int(a[i].NAT.Mapping), int(a[i].NAT.Filtering)}]++
	}
	// Every mix cell should be populated at n=256, with frequencies in
	// the right ballpark (loose 3-sigma-ish bounds).
	for _, c := range defaultBehaviorMix {
		got := counts[[2]int{int(c.Mapping), int(c.Filtering)}]
		want := c.Weight * 256
		if got == 0 {
			t.Errorf("class %s/%s: no devices sampled", c.Mapping.Short(), c.Filtering.Short())
		}
		if math.Abs(float64(got)-want) > 3*math.Sqrt(want)+6 {
			t.Errorf("class %s/%s: %d devices, want ~%.0f", c.Mapping.Short(), c.Filtering.Short(), got, want)
		}
	}
	// And nothing outside the mix.
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 256 || len(counts) > len(defaultBehaviorMix) {
		t.Fatalf("class histogram %v does not partition the fleet", counts)
	}
}

func TestSynthesizeBehaviorsNilMix(t *testing.T) {
	plain := NewSynthStream(3).Next(8)
	same := synthesizeBehaviors(8, 3, nil)
	for i := range plain {
		if plain[i].Tag != same[i].Tag ||
			same[i].NAT.Mapping != nat.MappingAddressAndPortDependent ||
			same[i].NAT.Filtering != nat.FilteringAddressAndPortDependent {
			t.Fatalf("nil mix altered device %d", i)
		}
	}
}

func TestBehaviorProfileAndNATClass(t *testing.T) {
	p := BehaviorProfile("x", nat.MappingEndpointIndependent, nat.FilteringAddressDependent, nat.PortAllocSequential)
	if got := natClass(p); got != "EIM/ADF sequential" {
		t.Fatalf("NATClass = %q", got)
	}
	owrt, _ := ByTag("owrt")
	if got := natClass(owrt); got != "APDM/APDF preserve+reuse" {
		t.Fatalf("owrt NATClass = %q", got)
	}
	smc, _ := ByTag("smc")
	if got := natClass(smc); got != "APDM/APDF sequential" {
		t.Fatalf("smc NATClass = %q", got)
	}
	be1, _ := ByTag("be1")
	if got := natClass(be1); got != "APDM/APDF preserve+new-binding" {
		t.Fatalf("be1 NATClass = %q", got)
	}
}

// behaviorCell is one cell of a joint (mapping, filtering)
// distribution over RFC 4787 behavior classes.
type behaviorCell struct {
	Mapping   nat.MappingBehavior
	Filtering nat.FilteringBehavior
	Weight    float64
}

// defaultBehaviorMix is a plausible wide-area joint mapping×filtering
// distribution for traversal studies. The paper's own inventory is
// degenerate — all 34 devices are APDM×APDF (see profileRow.ports) — so
// fleets that should exercise the traversal-relevant axes need an
// explicit mix; this one follows the shape STUN-era surveys report for
// broader populations: endpoint-independent mapping dominates, mostly
// with port-restricted (APDF) filtering, with a symmetric minority.
var defaultBehaviorMix = []behaviorCell{
	{nat.MappingEndpointIndependent, nat.FilteringAddressAndPortDependent, 0.35},
	{nat.MappingEndpointIndependent, nat.FilteringAddressDependent, 0.15},
	{nat.MappingEndpointIndependent, nat.FilteringEndpointIndependent, 0.10},
	{nat.MappingAddressDependent, nat.FilteringAddressDependent, 0.05},
	{nat.MappingAddressAndPortDependent, nat.FilteringAddressAndPortDependent, 0.35},
}

// behaviorSeedSalt decorrelates the behavior-class stream from the
// base profile stream (any fixed odd constant works).
const behaviorSeedSalt = 0x4787

// synthesizeBehaviors samples a fleet exactly like a SynthStream and then
// overlays (mapping, filtering) classes drawn jointly from mix. The
// class draws come from an independent rng stream, so the base
// profiles are bit-identical to NewSynthStream(seed).Next(n): a
// behavior-annotated fleet is the plain fleet plus behavior classes,
// and existing fleet results stay reproducible. A nil or all-zero mix
// returns the plain fleet unchanged.
func synthesizeBehaviors(n int, seed int64, mix []behaviorCell) []Profile {
	out := NewSynthStream(seed).Next(n)
	var total float64
	for _, c := range mix {
		if c.Weight < 0 {
			panic("gateway: negative behavior-class weight")
		}
		total += c.Weight
	}
	if total <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed ^ behaviorSeedSalt))
	for i := range out {
		u := rng.Float64() * total
		acc := 0.0
		cls := mix[len(mix)-1]
		for _, c := range mix {
			acc += c.Weight
			if u < acc {
				cls = c
				break
			}
		}
		out[i].NAT.Mapping = cls.Mapping
		out[i].NAT.Filtering = cls.Filtering
	}
	return out
}

// natClass renders a profile's RFC 4787 behavior classes in the
// conventional shorthand, e.g. "APDM/APDF preserve+reuse".
func natClass(p Profile) string {
	alloc := p.NAT.PortAlloc.String()
	if p.NAT.PortAlloc == nat.PortAllocPreserving {
		alloc = "preserve+new-binding"
		if p.NAT.ReuseExpiredBinding {
			alloc = "preserve+reuse"
		}
	}
	return p.NAT.Mapping.Short() + "/" + p.NAT.Filtering.Short() + " " + alloc
}
