// natclassify: a STUN-like behavioral classification of a single
// device, combining the RFC 4787 mapping/filtering probe (natmap), the
// port-preservation/reuse probe (UDP-4), the hairpinning check, the
// ICMP translation quality and the unknown-protocol fallback — the
// properties that matter for NAT traversal (paper §2 and §4.4). Each
// of the five experiments runs on a testbed of its own, so each reports
// exactly what a run of it alone would.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"hgw"
)

func main() {
	tag := flag.String("tag", "owrt", "device tag to classify")
	flag.Parse()

	fmt.Printf("Classifying %s ...\n\n", *tag)
	results, err := hgw.Run(context.Background(),
		[]string{"udp4", "quirks", "sctp", "icmp", "natmap"},
		hgw.WithTags(*tag),
		hgw.WithIterations(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	reuse := results.Get("udp4").Payload.([]hgw.PortReuseResult)[0]
	quirk := results.Get("quirks").Payload.([]hgw.QuirkResult)[0]
	sctp := results.Get("sctp").Payload.([]hgw.ConnResult)[0]
	icmp := results.Get("icmp").Payload.([]hgw.ICMPMatrix)[0]
	nm := results.Get("natmap").Payload.([]hgw.NATMapResult)[0]

	fmt.Printf("RFC 4787 mapping:    %v (probe: %v, agree=%v)\n",
		nm.ConfiguredMapping, nm.Mapping, nm.MappingAgrees)
	fmt.Printf("RFC 4787 filtering:  %v (probe: %v, agree=%v)\n",
		nm.ConfiguredFiltering, nm.Filtering, nm.FilteringAgrees)
	fmt.Printf("port allocation:     %v (external ports %v for source %d)\n",
		reuse.Class, reuse.ObservedPorts, reuse.SourcePort)
	fmt.Printf("hairpinning:         %v\n", quirk.Hairpins)
	fmt.Printf("TTL decremented:     %v\n", quirk.DecrementsTTL)
	fmt.Printf("record route:        %v\n", quirk.RecordsRoute)
	fmt.Printf("SCTP passes:         %v (IP-only translation fallback)\n", sctp.OK)

	okICMP := 0
	for _, v := range icmp.UDP {
		if v.Forwarded() {
			okICMP++
		}
	}
	fmt.Printf("UDP ICMP forwarded:  %d/10 error kinds\n", okICMP)

	// "Well-behaving" for hole punching (Ford et al.): punching an
	// identical peer is predicted to succeed (the punched port is
	// predictable — EIM or preservation — and the filter admits the
	// peer), and same-NAT peers can fall back on hairpinning.
	punch := nm.SelfTraversal(reuse.Class != hgw.NoPreservation)
	fmt.Printf("\npredicted punch vs. identical peer: %v\n", punch)
	fmt.Printf("\"well-behaving\" NAT for hole punching (Ford et al.: punch + hairpin): %v\n",
		punch && quirk.Hairpins)
	fmt.Printf("(probe drop counters: quirks=%s)\n", hgw.FormatDrops(quirk.Drops))
}
