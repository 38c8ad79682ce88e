package gateway

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hgw/internal/nat"
	"hgw/internal/stats"
)

func TestSynthesizeDeterministic(t *testing.T) {
	a := NewSynthStream(42).Next(100)
	b := NewSynthStream(42).Next(100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal (n, seed) fleets differ")
	}
	// Byte-identical, not merely structurally equal: the fleet is part
	// of the reproducibility contract, so its full rendering must match.
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("equal (n, seed) fleets render differently")
	}
	c := NewSynthStream(43).Next(100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fleets")
	}
	// A fleet is a prefix of every longer fleet with the same seed, so
	// growing a fleet never re-rolls existing devices.
	long := NewSynthStream(42).Next(150)
	if !reflect.DeepEqual(a, long[:100]) {
		t.Fatal("shorter fleet is not a prefix of the longer one")
	}
}

func TestSynthesizeTags(t *testing.T) {
	profs := NewSynthStream(7).Next(50)
	if len(profs) != 50 {
		t.Fatalf("profiles = %d, want 50", len(profs))
	}
	seen := map[string]bool{}
	for i, p := range profs {
		want := fmt.Sprintf("%s%04d", SynthTagPrefix, i+1)
		if p.Tag != want {
			t.Fatalf("tag[%d] = %q, want %q", i, p.Tag, want)
		}
		if seen[p.Tag] {
			t.Fatalf("duplicate tag %q", p.Tag)
		}
		seen[p.Tag] = true
		if _, clash := ByTag(p.Tag); clash {
			t.Fatalf("synthetic tag %q collides with the Table 1 inventory", p.Tag)
		}
		if !strings.HasPrefix(p.Tag, SynthTagPrefix) {
			t.Fatalf("tag %q lacks the %q prefix", p.Tag, SynthTagPrefix)
		}
		if p.BufBytes <= 0 {
			t.Fatalf("%s: BufBytes = %d", p.Tag, p.BufBytes)
		}
	}
}

// TestSynthesizePopulationMedians checks that a large sampled fleet
// reproduces the paper's headline UDP-1/2/3 population medians
// (90/180/181 s) within 10%, and that every device keeps the
// UDP-3 >= UDP-1 invariant the comonotone draw guarantees.
func TestSynthesizePopulationMedians(t *testing.T) {
	profs := NewSynthStream(1).Next(1000)
	var u1, u2, u3 []float64
	for _, p := range profs {
		u1 = append(u1, p.NAT.UDP.Outbound.Seconds())
		u2 = append(u2, p.NAT.UDP.Inbound.Seconds())
		u3 = append(u3, p.NAT.UDP.Bidir.Seconds())
		if p.NAT.UDP.Bidir < p.NAT.UDP.Outbound {
			t.Fatalf("%s: UDP-3 %v < UDP-1 %v", p.Tag, p.NAT.UDP.Bidir, p.NAT.UDP.Outbound)
		}
	}
	for _, tc := range []struct {
		name  string
		xs    []float64
		paper float64
	}{
		{"UDP-1", u1, 90},
		{"UDP-2", u2, 180},
		{"UDP-3", u3, 181},
	} {
		med := stats.Median(tc.xs)
		if math.Abs(med-tc.paper) > 0.10*tc.paper {
			t.Errorf("%s population median = %.2f, want within 10%% of %.0f", tc.name, med, tc.paper)
		}
	}
}

// TestSynthesizeClassFrequencies checks that categorical behavior
// classes appear at roughly the paper's Table 1 / Table 2 rates.
func TestSynthesizeClassFrequencies(t *testing.T) {
	const n = 2000
	profs := NewSynthStream(99).Next(n)
	var preserve, over24, wireSpeed, dnsAccept int
	for _, p := range profs {
		if p.NAT.PortAlloc == nat.PortAllocPreserving {
			preserve++
		}
		if p.NAT.TCPEstablished == 0 {
			over24++
		}
		if p.UpMbps == 0 {
			wireSpeed++
		}
		if p.DNSTCP != DNSTCPRefuse {
			dnsAccept++
		}
	}
	// Expected rates from the 34-row inventory, with a generous ±5
	// percentage points of sampling slack at n=2000.
	for _, tc := range []struct {
		name string
		got  int
		want float64 // expected fraction
	}{
		{"port-preserving", preserve, 27.0 / 34},
		{"TCP-1 beyond 24h", over24, 7.0 / 34},
		{"wire-speed", wireSpeed, 13.0 / 34},
		{"DNS/TCP accepting", dnsAccept, 14.0 / 34},
	} {
		frac := float64(tc.got) / n
		if math.Abs(frac-tc.want) > 0.05 {
			t.Errorf("%s = %.3f of fleet, want %.3f ± 0.05", tc.name, frac, tc.want)
		}
	}
	// The dl8-style per-service DNS override is rare (1/34) but must
	// exist in a large fleet.
	overrides := 0
	for _, p := range profs {
		if len(p.NAT.UDPServices) > 0 {
			if p.NAT.UDPServices[53].Outbound != 40*time.Second {
				t.Errorf("%s: DNS override = %v, want 40s", p.Tag, p.NAT.UDPServices[53].Outbound)
			}
			overrides++
		}
	}
	if overrides == 0 {
		t.Error("no device sampled the dl8 per-service DNS override")
	}
}

// TestSynthStreamChunkInvariant pins the property the fleet pipeline
// leans on to avoid materializing million-device populations: drawing
// a fleet from a SynthStream in chunks of any sizes yields exactly
// NewSynthStream(seed).Next(total), so per-shard profile slices generated on
// demand are byte-identical to slices of the whole fleet.
func TestSynthStreamChunkInvariant(t *testing.T) {
	const n, seed = 120, 42
	whole := NewSynthStream(seed).Next(n)
	for _, chunks := range [][]int{
		{n},
		{1, n - 1},
		{17, 17, 17, 17, 17, 17, 17, 1},
		{40, 40, 40},
	} {
		st := NewSynthStream(seed)
		var got []Profile
		for _, c := range chunks {
			if want := len(got); st.next != want {
				t.Fatalf("chunks %v: next index %d before drawing, want %d", chunks, st.next, want)
			}
			got = append(got, st.Next(c)...)
		}
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("chunks %v: chunked stream differs from NewSynthStream(%d).Next(%d)", chunks, n, seed)
		}
	}
	// Zero and negative draws are no-ops, not stream perturbations.
	st := NewSynthStream(seed)
	st.Next(0)
	st.Next(-3)
	if !reflect.DeepEqual(st.Next(n), whole) {
		t.Fatal("empty draws perturbed the stream")
	}
}
