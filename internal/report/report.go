// Package report renders experiment results in the paper's style:
// population plots with devices ordered by ascending median on the
// x-axis (drawn here as ASCII bar charts), population summaries for
// fleet-scale figures, the Table 2 dot matrix, and markdown tables.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"hgw/internal/netpkt"
	"hgw/internal/probe"
	"hgw/internal/stats"
)

// Figure is a rendered population result.
type Figure struct {
	Title  string
	Unit   string
	Points []stats.DevicePoint // sorted ascending by median
	Median float64             // population median of medians
	Mean   float64
}

// NewFigure builds a Figure from per-device results.
func NewFigure(title, unit string, results []probe.DeviceResult) Figure {
	return NewFigureFromPoints(title, unit, Points(results))
}

// Points reduces per-device results to population points, dropping
// devices with no samples. It is the one reduction from rows to
// points: NewFigure uses it, and so do fleet runners, which reduce each
// shard's sweep as it finishes instead of holding every device's raw
// samples alive until the merge.
func Points(results []probe.DeviceResult) []stats.DevicePoint {
	pts := make([]stats.DevicePoint, 0, len(results))
	for _, r := range results {
		if len(r.Samples) == 0 {
			continue
		}
		pts = append(pts, r.Point())
	}
	return pts
}

// NewFigureFromPoints builds a Figure from per-device points (Points).
// Population stable-sorts, so equal points in equal order give equal
// figures, however the points were gathered.
func NewFigureFromPoints(title, unit string, pts []stats.DevicePoint) Figure {
	sorted, med, mean := stats.Population(pts)
	return Figure{Title: title, Unit: unit, Points: sorted, Median: med, Mean: mean}
}

// Render draws the figure as an ASCII bar chart, one device per row,
// ordered like the paper's x-axis. logScale mimics Figure 7's log axis.
func (f Figure) Render(width int, logScale bool) string {
	if width <= 0 {
		width = 50
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]\n", f.Title, f.Unit)
	if len(f.Points) == 0 {
		sb.WriteString("  (no data)\n")
		return sb.String()
	}
	maxV := f.Points[len(f.Points)-1].Median
	minV := f.Points[0].Median
	scale := func(v float64) int {
		if maxV <= 0 {
			return 0
		}
		if logScale {
			lo := math.Log10(math.Max(minV, 1))
			hi := math.Log10(math.Max(maxV, 10))
			if hi <= lo {
				return width
			}
			return int(float64(width) * (math.Log10(math.Max(v, 1)) - lo) / (hi - lo))
		}
		return int(float64(width) * v / maxV)
	}
	for _, p := range f.Points {
		n := scale(p.Median)
		if n < 0 {
			n = 0
		}
		iqr := ""
		if p.IQR() > 0.5 {
			iqr = fmt.Sprintf("  (q1=%.1f q3=%.1f)", p.Q1, p.Q3)
		}
		fmt.Fprintf(&sb, "  %-5s %8.2f |%s%s\n", p.Tag, p.Median, strings.Repeat("#", n), iqr)
	}
	fmt.Fprintf(&sb, "  population median = %.2f, mean = %.2f\n", f.Median, f.Mean)
	return sb.String()
}

// RenderSummary renders the figure as population statistics without
// per-device rows: the median/mean headline plus a decile table of the
// per-device medians. Fleet-scale figures (hundreds to thousands of
// synthetic devices) use this instead of Render, whose row-per-device
// bar chart stops being readable past the paper's 34.
func (f Figure) RenderSummary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]  (%d devices)\n", f.Title, f.Unit, len(f.Points))
	if len(f.Points) == 0 {
		sb.WriteString("  (no data)\n")
		return sb.String()
	}
	// Points are already sorted ascending by median, so deciles come
	// from direct interpolation rather than stats.Quantile's copy+sort.
	med := func(i int) float64 { return f.Points[i].Median }
	fmt.Fprintf(&sb, "  population median = %.2f, mean = %.2f\n", f.Median, f.Mean)
	fmt.Fprintf(&sb, "  %-10s", "deciles:")
	for q := 0; q <= 10; q++ {
		pos := float64(q) / 10 * float64(len(f.Points)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		fmt.Fprintf(&sb, " %8.1f", med(lo)+(pos-float64(lo))*(med(hi)-med(lo)))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Markdown renders the figure as a markdown table.
func (f Figure) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "| device | median (%s) | q1 | q3 |\n|---|---|---|---|\n", f.Unit)
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "| %s | %.2f | %.2f | %.2f |\n", p.Tag, p.Median, p.Q1, p.Q3)
	}
	fmt.Fprintf(&sb, "\nPopulation median %.2f, mean %.2f (%s).\n", f.Median, f.Mean, f.Unit)
	return sb.String()
}

// Order returns the device tags in plot order.
func (f Figure) Order() []string {
	out := make([]string, len(f.Points))
	for i, p := range f.Points {
		out[i] = p.Tag
	}
	return out
}

// MultiSeries renders several aligned series (e.g. Figure 2's UDP-1/2/3
// or Figure 8's four throughput series), ordered by the first series.
func MultiSeries(title, unit string, order []string, series map[string]map[string]float64, names []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]\n", title, unit)
	fmt.Fprintf(&sb, "  %-5s", "dev")
	for _, name := range names {
		fmt.Fprintf(&sb, " %12s", name)
	}
	sb.WriteString("\n")
	for _, tag := range order {
		fmt.Fprintf(&sb, "  %-5s", tag)
		for _, name := range names {
			v, ok := series[name][tag]
			if !ok {
				fmt.Fprintf(&sb, " %12s", "-")
				continue
			}
			fmt.Fprintf(&sb, " %12.2f", v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// table2Row is one device's Table 2 cells keyed by column name.
type table2Row struct {
	tag  string
	cell map[string]bool
}

// table2Rows assembles the Table 2 grid shared by the dot-matrix and
// CSV renderers: the column names in presentation order and one row per
// device, sorted by tag.
func table2Rows(matrices []probe.ICMPMatrix, sctp, dccp []probe.ConnResult,
	dns []probe.DNSResult) (cols []string, rows []*table2Row) {

	cols = []string{"DCCP", "DNS/TCP", "DNS/UDP", "ICMP:Host", "SCTP"}
	for _, pfx := range []string{"TCP", "UDP"} {
		for k := netpkt.ICMPKind(0); k < netpkt.NumICMPKinds; k++ {
			cols = append(cols, pfx+":"+k.String())
		}
	}
	byTag := map[string]*table2Row{}
	get := func(tag string) *table2Row {
		if r, ok := byTag[tag]; ok {
			return r
		}
		r := &table2Row{tag: tag, cell: map[string]bool{}}
		byTag[tag] = r
		rows = append(rows, r)
		return r
	}
	for _, m := range matrices {
		r := get(m.Tag)
		r.cell["ICMP:Host"] = m.Echo.Forwarded()
		for k := netpkt.ICMPKind(0); k < netpkt.NumICMPKinds; k++ {
			r.cell["TCP:"+k.String()] = m.TCP[k].Forwarded()
			r.cell["UDP:"+k.String()] = m.UDP[k].Forwarded()
		}
	}
	for _, c := range sctp {
		get(c.Tag).cell["SCTP"] = c.OK
	}
	for _, c := range dccp {
		get(c.Tag).cell["DCCP"] = c.OK
	}
	for _, d := range dns {
		r := get(d.Tag)
		r.cell["DNS/UDP"] = d.UDPAnswers
		r.cell["DNS/TCP"] = d.TCPAnswers
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].tag < rows[j].tag })
	return cols, rows
}

// Table2 renders the paper's Table 2: one row per device, one column
// per test, a dot where the test passes.
func Table2(matrices []probe.ICMPMatrix, sctp, dccp []probe.ConnResult, dns []probe.DNSResult) string {
	cols, rows := table2Rows(matrices, sctp, dccp, dns)

	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-6s", "tag"))
	for i := range cols {
		sb.WriteString(fmt.Sprintf(" %2d", i+1))
	}
	sb.WriteString("   (columns below)\n")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-6s", r.tag))
		dots := 0
		for _, c := range cols {
			if r.cell[c] {
				sb.WriteString("  •")
				dots++
			} else {
				sb.WriteString("  .")
			}
		}
		sb.WriteString(fmt.Sprintf("   [%d]\n", dots))
	}
	sb.WriteString("\ncolumns: ")
	for i, c := range cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(fmt.Sprintf("%d=%s", i+1, c))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Table2CSV writes the same grid as Table2 in machine-readable CSV:
// a header row of "tag" plus the column names, then one row per device
// with 1 where the test passes and 0 where it fails.
func Table2CSV(w io.Writer, matrices []probe.ICMPMatrix, sctp, dccp []probe.ConnResult,
	dns []probe.DNSResult) error {

	cols, rows := table2Rows(matrices, sctp, dccp, dns)
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"tag"}, cols...)); err != nil {
		return err
	}
	record := make([]string, 0, len(cols)+1)
	for _, r := range rows {
		record = record[:0]
		record = append(record, r.tag)
		for _, c := range cols {
			if r.cell[c] {
				record = append(record, "1")
			} else {
				record = append(record, "0")
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
