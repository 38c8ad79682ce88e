package hgw

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"hgw/internal/probe"
	"hgw/internal/report"
)

// Result is the uniform envelope every experiment returns: the rendered
// report text, the population Figure when the experiment produces one,
// and the raw typed payload for programmatic use.
//
// Payload holds the experiment's natural result type:
//
//	udp1 udp2 udp3 tcp1 tcp4 bindrate   nil (the result is the Figure field)
//	udp4                                []PortReuseResult
//	udp5 fig2                           map[string]Figure
//	tcp2                                []Throughput
//	icmp                                []ICMPMatrix
//	sctp dccp                           []ConnResult
//	dns                                 []DNSResult
//	quirks                              []QuirkResult
//	keepalive                           []KeepaliveResult
//	holepunch                           []HolePunchResult
//	natmap                              []NATMapResult
//	punchmatrix                         []PunchMatrixResult
type Result struct {
	// ID is the registry id that produced this result.
	ID string
	// Title is the experiment's paper-style title.
	Title string
	// Unit is the measurement unit of the primary figure, if any.
	Unit string
	// Ref names the paper artifact ("Figure 3", "Table 2", "§4.4").
	Ref string
	// Note quotes the paper's headline numbers for comparison.
	Note string
	// Figure is the population plot, when the experiment produces one.
	Figure *Figure
	// Payload is the raw typed result (see the table above).
	Payload any

	text string
}

// Render returns the experiment's rendered report text. The text is
// produced at run time, so two runs with equal seeds render
// byte-identically.
func (r *Result) Render() string { return r.text }

// MarshalJSON emits the envelope with its rendered text and payload.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID      string  `json:"id"`
		Title   string  `json:"title"`
		Unit    string  `json:"unit,omitempty"`
		Ref     string  `json:"ref,omitempty"`
		Note    string  `json:"note,omitempty"`
		Figure  *Figure `json:"figure,omitempty"`
		Payload any     `json:"payload,omitempty"`
		Text    string  `json:"text"`
	}{r.ID, r.Title, r.Unit, r.Ref, r.Note, r.Figure, r.Payload, r.text})
}

// Throughputs returns the tcp2 payload, or an error when the result
// carries a different payload type.
func (r *Result) Throughputs() ([]Throughput, error) {
	th, ok := r.Payload.([]Throughput)
	if !ok {
		return nil, fmt.Errorf("hgw: result %q carries %T, not []Throughput", r.ID, r.Payload)
	}
	return th, nil
}

// throughputSeries splits tcp2's results into the four series of
// Figure 8 (throughput) and Figure 9 (queuing delay), keyed by series
// name then device tag.
func throughputSeries(results []Throughput) (fig8, fig9 map[string]map[string]float64) {
	fig8 = map[string]map[string]float64{
		"Upload": {}, "Download": {}, "Up|Down": {}, "Down|Up": {},
	}
	fig9 = map[string]map[string]float64{
		"Upload": {}, "Download": {}, "Up|Down": {}, "Down|Up": {},
	}
	for _, r := range results {
		fig8["Upload"][r.Tag] = r.UpMbps
		fig8["Download"][r.Tag] = r.DownMbps
		fig8["Up|Down"][r.Tag] = r.BiUpMbps
		fig8["Down|Up"][r.Tag] = r.BiDownMbps
		fig9["Upload"][r.Tag] = r.DelayUpMs
		fig9["Download"][r.Tag] = r.DelayDownMs
		fig9["Up|Down"][r.Tag] = r.BiDelayUpMs
		fig9["Down|Up"][r.Tag] = r.BiDelayDownMs
	}
	return fig8, fig9
}

// Results is an ordered collection of experiment results, as returned
// by Run (in requested-id order).
type Results []*Result

// Get returns the result for id, or nil when the run did not include it.
func (rs Results) Get(id string) *Result {
	for _, r := range rs {
		if r != nil && r.ID == id {
			return r
		}
	}
	return nil
}

// Render concatenates every result's report under a section header.
func (rs Results) Render() string {
	var sb strings.Builder
	for _, r := range rs {
		if r == nil {
			continue
		}
		fmt.Fprintf(&sb, "\n===== %s =====\n", r.Title)
		sb.WriteString(r.Render())
		if r.Note != "" {
			sb.WriteString(r.Note + "\n")
		}
	}
	return sb.String()
}

// IsTable2Component reports whether the result's payload feeds the
// combined Table 2 (icmp, sctp, dccp or dns), letting reporting
// front-ends fold those sections into one table.
func (r *Result) IsTable2Component() bool {
	switch r.Payload.(type) {
	case []ICMPMatrix, []ConnResult, []DNSResult:
		return true
	}
	return false
}

// table2Components collects whichever of the icmp, sctp, dccp and dns
// payloads are present in the collection. ok is false when none of the
// four component experiments were run.
func (rs Results) table2Components() (m []ICMPMatrix, sctp, dccp []ConnResult, dns []DNSResult, ok bool) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		switch p := r.Payload.(type) {
		case []ICMPMatrix:
			m, ok = p, true
		case []ConnResult:
			if r.ID == "dccp" {
				dccp = p
			} else {
				sctp = p
			}
			ok = true
		case []DNSResult:
			dns, ok = p, true
		}
	}
	return m, sctp, dccp, dns, ok
}

// Table2 assembles the paper's combined Table 2 from whichever of the
// icmp, sctp, dccp and dns results are present in the collection,
// followed by the population summary the paper's prose quotes. ok is
// false when none of the four component experiments were run.
func (rs Results) Table2() (text string, ok bool) {
	m, sctp, dccp, dns, ok := rs.table2Components()
	if !ok {
		return "", false
	}
	return report.Table2(m, sctp, dccp, dns) + table2Summary(m, sctp, dccp, dns), true
}

// Table2CSV writes the combined Table 2 to w in machine-readable CSV:
// a "tag" + column-name header, then one 0/1 row per device (the dot
// matrix with dots as 1s). ok is false — and nothing is written — when
// the collection holds none of the four component experiments.
func (rs Results) Table2CSV(w io.Writer) (ok bool, err error) {
	m, sctp, dccp, dns, ok := rs.table2Components()
	if !ok {
		return false, nil
	}
	return true, report.Table2CSV(w, m, sctp, dccp, dns)
}

// table2Summary renders the population counts quoted in §4.2-4.3.
func table2Summary(m []ICMPMatrix, sctp, dccp []ConnResult, dns []DNSResult) string {
	var sb strings.Builder
	sb.WriteString("\n")
	if sctp != nil || dccp != nil {
		sctpOK, dccpOK := 0, 0
		for _, r := range sctp {
			if r.OK {
				sctpOK++
			}
		}
		for _, r := range dccp {
			if r.OK {
				dccpOK++
			}
		}
		fmt.Fprintf(&sb, "summary: SCTP works through %d devices (paper: 18); DCCP through %d (paper: 0)\n",
			sctpOK, dccpOK)
	}
	if dns != nil {
		accept, answer, viaUDP := 0, 0, 0
		for _, r := range dns {
			if r.TCPAccepts {
				accept++
			}
			if r.TCPAnswers {
				answer++
			}
			if r.TCPViaUDP {
				viaUDP++
			}
		}
		fmt.Fprintf(&sb, "         DNS/TCP: %d accept, %d answer, %d via UDP upstream (paper: 14 / 10 / ap)\n",
			accept, answer, viaUDP)
	}
	if m != nil {
		innerUnfixed, badCsum := 0, 0
		for _, mm := range m {
			unfixed, bad := false, false
			for k := range mm.UDP {
				if mm.UDP[k] == probe.VerdictInnerUnfixed || mm.TCP[k] == probe.VerdictInnerUnfixed {
					unfixed = true
				}
				if mm.UDP[k] == probe.VerdictInnerBadChecksum || mm.TCP[k] == probe.VerdictInnerBadChecksum {
					bad = true
				}
			}
			if unfixed {
				innerUnfixed++
			}
			if bad {
				badCsum++
			}
		}
		fmt.Fprintf(&sb, "         %d devices leave embedded ICMP headers untranslated (paper: 16); %d corrupt embedded IP checksums (paper: 2)\n",
			innerUnfixed, badCsum)
	}
	return sb.String()
}

// sortedFigureNames returns the keys of a figure map in render order.
func sortedFigureNames(figs map[string]Figure) []string {
	names := make([]string, 0, len(figs))
	for n := range figs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
