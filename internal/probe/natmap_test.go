package probe

import (
	"fmt"
	"math/rand"
	"testing"

	"hgw/internal/gateway"
	"hgw/internal/nat"
	"hgw/internal/testbed"
)

// TestNATMapRecoversAllProfiles: the STUN-style probe must recover the
// configured mapping and filtering class of every Table 1 device from
// the outside (they are all APDM/APDF, across preserve+reuse,
// preserve+new-binding, no-preservation and coarse-timer variants —
// the blocker host defeats the port-preservation confound).
func TestNATMapRecoversAllProfiles(t *testing.T) {
	tb, s := testbed.Run(testbed.Config{Seed: 21})
	res := NATMap(tb, s, Options{})
	if len(res) != 34 {
		t.Fatalf("got %d results, want 34", len(res))
	}
	for _, r := range res {
		if !r.MappingAgrees {
			t.Errorf("%s: probe mapping %s != configured %s (ports %v, drops %v)",
				r.Tag, r.Mapping.Short(), r.ConfiguredMapping.Short(), r.MapPorts, r.Drops)
		}
		if !r.FilteringAgrees {
			t.Errorf("%s: probe filtering %s != configured %s (drops %v)",
				r.Tag, r.Filtering.Short(), r.ConfiguredFiltering.Short(), r.Drops)
		}
	}
}

// TestNATMapRecoversRandomPolicies is the quick-check-style property
// test: for seeded random (mapping, filtering, allocation) policies
// the probe must recover the configured classes. Each trial runs a
// fresh single-device testbed around a synthetic behavior profile.
func TestNATMapRecoversRandomPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds one testbed per trial")
	}
	rng := rand.New(rand.NewSource(4787))
	mappings := []nat.MappingBehavior{
		nat.MappingAddressAndPortDependent, nat.MappingAddressDependent, nat.MappingEndpointIndependent,
	}
	filterings := []nat.FilteringBehavior{
		nat.FilteringAddressAndPortDependent, nat.FilteringAddressDependent, nat.FilteringEndpointIndependent,
	}
	allocs := []nat.PortAllocBehavior{
		nat.PortAllocPreserving, nat.PortAllocSequential, nat.PortAllocContiguous, nat.PortAllocRandom,
	}
	const trials = 16
	for i := 0; i < trials; i++ {
		m := mappings[rng.Intn(len(mappings))]
		f := filterings[rng.Intn(len(filterings))]
		a := allocs[rng.Intn(len(allocs))]
		seed := rng.Int63n(1 << 20)
		name := fmt.Sprintf("%s-%s-%s-%d", m.Short(), f.Short(), a, seed)
		prof := gateway.BehaviorProfile(fmt.Sprintf("rnd%02d", i), m, f, a)
		tb, s := testbed.Run(testbed.Config{Profiles: []gateway.Profile{prof}, Seed: seed})
		res := NATMap(tb, s, Options{})
		if len(res) != 1 {
			t.Fatalf("%s: got %d results", name, len(res))
		}
		r := res[0]
		if !r.MappingAgrees || !r.FilteringAgrees {
			t.Errorf("%s: recovered %s, configured %s/%s (ports %v, drops %v)",
				name, r.Classes(), m.Short(), f.Short(), r.MapPorts, r.Drops)
		}
	}
}

// TestPunchMatrixMatchesPrediction: every simulated behavior-class
// pair must land on the analytic prediction, and the canonical
// acceptance pairs must behave as the RFCs say: EIM×EIF punches,
// fresh-port APDM×APDF does not.
func TestPunchMatrixMatchesPrediction(t *testing.T) {
	pairs := PunchPairs(PunchClasses)
	want := len(PunchClasses) * (len(PunchClasses) + 1) / 2
	if len(pairs) != want {
		t.Fatalf("got %d pairs, want %d", len(pairs), want)
	}
	byPair := map[string]PunchMatrixResult{}
	for _, pr := range pairs {
		tb, s := testbed.Run(testbed.Config{Profiles: PunchProfiles(pr[0], pr[1]), Seed: 3})
		r := PunchPair(pr[0], pr[1], tb, s)
		s.Shutdown()
		if !r.Agree {
			t.Errorf("%s x %s: simulated %v, predicted %v (extA=%v extB=%v)",
				r.ClassA, r.ClassB, r.Simulated, r.Predicted, r.ExtA, r.ExtB)
		}
		byPair[r.ClassA+"|"+r.ClassB] = r
	}
	if r := byPair["eim-eif|eim-eif"]; !r.Simulated {
		t.Error("EIM x EIF pair failed to punch")
	}
	if r := byPair["apdm-apdf|apdm-apdf"]; r.Simulated {
		t.Error("fresh-port symmetric pair punched without port prediction")
	}
	if r := byPair["apdm-apdf-pp|apdm-apdf-pp"]; !r.Simulated {
		t.Error("port-preserving symmetric pair failed to punch (the paper's population does)")
	}
}
