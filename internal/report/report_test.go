package report

import (
	"strings"
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/probe"
)

func sample(tag string, vals ...float64) probe.DeviceResult {
	return probe.DeviceResult{Tag: tag, Samples: vals}
}

func TestNewFigureSortsByMedian(t *testing.T) {
	f := NewFigure("test", "sec", []probe.DeviceResult{
		sample("b", 20, 22), sample("a", 10), sample("c", 30, 31, 29),
	})
	if got := f.Order(); got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v", got)
	}
	if f.Median != 21 {
		t.Fatalf("median = %v", f.Median)
	}
}

func TestFigureSkipsEmpty(t *testing.T) {
	f := NewFigure("test", "sec", []probe.DeviceResult{
		sample("a", 10), {Tag: "empty"},
	})
	if len(f.Points) != 1 {
		t.Fatalf("points = %d", len(f.Points))
	}
}

func TestRenderContainsDevicesAndStats(t *testing.T) {
	f := NewFigure("My Figure", "sec", []probe.DeviceResult{
		sample("je", 30), sample("ls1", 691),
	})
	out := f.Render(40, false)
	for _, want := range []string{"My Figure", "je", "ls1", "population median"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Log-scale render must not panic and still include both.
	outLog := f.Render(40, true)
	if !strings.Contains(outLog, "ls1") {
		t.Error("log render broken")
	}
}

func TestRenderEmpty(t *testing.T) {
	f := NewFigure("empty", "sec", nil)
	if !strings.Contains(f.Render(10, false), "no data") {
		t.Error("empty figure render")
	}
}

func TestMarkdown(t *testing.T) {
	f := NewFigure("m", "sec", []probe.DeviceResult{sample("a", 1, 2, 3)})
	md := f.Markdown()
	if !strings.Contains(md, "| a |") || !strings.Contains(md, "Population median") {
		t.Errorf("markdown:\n%s", md)
	}
}

func TestMultiSeries(t *testing.T) {
	out := MultiSeries("t", "Mb/s", []string{"x", "y"},
		map[string]map[string]float64{
			"Up":   {"x": 1, "y": 2},
			"Down": {"x": 3},
		}, []string{"Up", "Down"})
	if !strings.Contains(out, "x") || !strings.Contains(out, "3.00") {
		t.Errorf("multiseries:\n%s", out)
	}
	if !strings.Contains(out, "-") { // missing y/Down
		t.Errorf("missing cell not rendered:\n%s", out)
	}
}

func TestTable2Rendering(t *testing.T) {
	var m probe.ICMPMatrix
	m.Tag = "dev1"
	m.TCP[netpkt.KindTTLExceeded] = probe.VerdictCorrect
	m.UDP[netpkt.KindPortUnreachable] = probe.VerdictInnerUnfixed // still a dot
	m.Echo = probe.VerdictNone
	out := Table2(
		[]probe.ICMPMatrix{m},
		[]probe.ConnResult{{Tag: "dev1", OK: true}},
		[]probe.ConnResult{{Tag: "dev1", OK: false}},
		[]probe.DNSResult{{Tag: "dev1", UDPAnswers: true, TCPAnswers: false}},
	)
	if !strings.Contains(out, "dev1") {
		t.Fatalf("table:\n%s", out)
	}
	// 4 dots: SCTP, DNS/UDP, TCP:TTL, UDP:Port.
	if !strings.Contains(out, "[4]") {
		t.Errorf("dot count wrong:\n%s", out)
	}
	if !strings.Contains(out, "1=DCCP") {
		t.Errorf("legend missing:\n%s", out)
	}
}
