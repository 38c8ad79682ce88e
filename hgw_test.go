package hgw_test

import (
	"context"
	"strings"
	"testing"

	"hgw"
)

// TestEndToEndSmall is the end-to-end reproduction check on a small
// device subset; the full-population run lives in the benchmarks and
// hgprobe -exp all.
func TestEndToEndSmall(t *testing.T) {
	results, err := hgw.Run(context.Background(), []string{"udp1", "icmp", "dns", "sctp", "dccp"},
		hgw.WithTags("je", "be2", "owrt", "nw1"), hgw.WithIterations(2))
	if err != nil {
		t.Fatal(err)
	}
	f1 := results.Get("udp1").Figure
	if len(f1.Points) != 4 {
		t.Fatalf("points = %d", len(f1.Points))
	}
	if f1.Points[0].Tag != "je" && f1.Points[0].Tag != "owrt" {
		t.Errorf("shortest UDP-1 = %s, want je/owrt (30 s)", f1.Points[0].Tag)
	}
	if f1.Points[3].Tag != "be2" {
		t.Errorf("longest UDP-1 = %s, want be2", f1.Points[3].Tag)
	}

	table, ok := results.Table2()
	if !ok || !strings.Contains(table, "owrt") || !strings.Contains(table, "•") {
		t.Errorf("table 2 rendering broken:\n%s", table)
	}
}

func TestDevicesMatchTable1(t *testing.T) {
	devs := hgw.Devices()
	if len(devs) != 34 {
		t.Fatalf("devices = %d, want 34", len(devs))
	}
	seen := map[string]bool{}
	for _, d := range devs {
		if d.Tag == "" || d.Vendor == "" || d.Model == "" {
			t.Errorf("incomplete profile: %+v", d)
		}
		if seen[d.Tag] {
			t.Errorf("duplicate tag %s", d.Tag)
		}
		seen[d.Tag] = true
	}
	for _, tag := range []string{"al", "ap", "as1", "be1", "be2", "bu1",
		"dl1", "dl2", "dl3", "dl4", "dl5", "dl6", "dl7", "dl8", "dl9", "dl10",
		"ed", "je", "ls1", "ls2", "ls3", "ls5", "owrt", "to",
		"ng1", "ng2", "ng3", "ng4", "ng5", "nw1", "smc", "te", "we", "zy1"} {
		if !seen[tag] {
			t.Errorf("missing paper tag %s", tag)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *hgw.Figure {
		results, err := hgw.Run(context.Background(), []string{"udp1"},
			hgw.WithTags("je", "ls1"), hgw.WithSeed(42), hgw.WithIterations(2))
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Figure
	}
	a, b := run(), run()
	if len(a.Points) != len(b.Points) {
		t.Fatal("length mismatch")
	}
	for i := range a.Points {
		if a.Points[i].Median != b.Points[i].Median {
			t.Fatalf("run differs at %s: %v vs %v", a.Points[i].Tag, a.Points[i].Median, b.Points[i].Median)
		}
	}
}
