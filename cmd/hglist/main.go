// Command hglist prints the emulated device inventory — the paper's
// Table 1 — with the key calibrated behaviors of each profile, followed
// by the experiment catalog from the registry. -json emits the registry
// metadata as JSON instead, in the same shape hgwd serves at
// GET /v1/experiments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hgw"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the experiment catalog as JSON (the GET /v1/experiments shape)")
	flag.Parse()

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err := enc.Encode(struct {
			Experiments []hgw.ExperimentInfo `json:"experiments"`
		}{hgw.RegistryInfo()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hglist:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%-5s %-9s %-22s %-22s %7s %7s %7s %8s %6s\n",
		"tag", "vendor", "model", "firmware", "udp1[s]", "udp2[s]", "udp3[s]", "tcp1", "maxTCP")
	for _, p := range hgw.Devices() {
		tcp1 := ""
		if p.NAT.TCPEstablished == 0 {
			tcp1 = ">24h"
		} else {
			tcp1 = fmt.Sprintf("%.0fm", p.NAT.TCPEstablished.Minutes())
		}
		fmt.Printf("%-5s %-9s %-22.22s %-22.22s %7.0f %7.0f %7.0f %8s %6d\n",
			p.Tag, p.Vendor, p.Model, p.Firmware,
			p.NAT.UDP.Outbound.Seconds(),
			p.NAT.UDP.Inbound.Seconds(),
			p.NAT.UDP.Bidir.Seconds(),
			tcp1, p.NAT.MaxTCPBindings)
	}

	fmt.Printf("\nExperiments (run with hgprobe -exp <id>, or -exp all for the default set):\n")
	fmt.Printf("%-10s %-10s %-12s %s\n", "id", "ref", "unit", "title")
	for _, e := range hgw.Registry() {
		unit := e.Unit
		if unit == "" {
			unit = "-"
		}
		fmt.Printf("%-10s %-10s %-12s %s\n", e.ID, e.Ref, unit, e.Title)
	}
}
