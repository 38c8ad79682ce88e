// Package nat implements the NAPT engine at the heart of the emulated
// home gateways. Every behavior the paper measures is a mechanism here:
// state-dependent UDP binding timeouts (UDP-1/2/3), coarse expiry timers,
// per-service overrides (UDP-5), port preservation and expired-binding
// quarantine (UDP-4), TCP state tracking with idle timeouts (TCP-1) and
// a binding-table cap (TCP-4), ICMP error translation with several
// deliberate mis-translation modes (Table 2), unknown-protocol fallback
// (SCTP/DCCP rows), and IP-layer quirks (TTL, Record Route).
package nat

import (
	"time"

	"hgw/internal/netpkt"
)

// ICMPMode says how a device handles one class of transport-related
// ICMP error messages arriving on its WAN port.
type ICMPMode int

// ICMP error handling modes observed in the paper's device population.
const (
	// ICMPDrop discards the message.
	ICMPDrop ICMPMode = iota
	// ICMPTranslate forwards it with the outer header, embedded datagram
	// and all checksums correctly rewritten.
	ICMPTranslate
	// ICMPNoInnerFix forwards the message but leaves the embedded
	// datagram untranslated (still showing the external address/port) —
	// the paper found 16 of 34 devices doing this.
	ICMPNoInnerFix
	// ICMPBadInnerIPChecksum translates the embedded datagram but
	// mis-computes its IP header checksum (the paper's zy1 and ls1).
	ICMPBadInnerIPChecksum
	// ICMPToRST replaces TCP-related errors with (invalid) TCP RST
	// segments toward the client (the paper's ls2).
	ICMPToRST
)

// String implements fmt.Stringer.
func (m ICMPMode) String() string {
	switch m {
	case ICMPDrop:
		return "drop"
	case ICMPTranslate:
		return "translate"
	case ICMPNoInnerFix:
		return "no-inner-fix"
	case ICMPBadInnerIPChecksum:
		return "bad-inner-ip-csum"
	case ICMPToRST:
		return "to-rst"
	}
	return "?"
}

// UnknownProtoMode says what a device does with transport protocols it
// does not recognise (SCTP, DCCP, ...).
type UnknownProtoMode int

// Unknown-protocol fallbacks from the paper's §4.3: 4 devices passed
// such packets entirely untranslated, 20 rewrote only the IP source
// address, the rest dropped them.
const (
	UnknownDrop UnknownProtoMode = iota
	UnknownTranslateIPOnly
	UnknownPassUntouched
)

// String implements fmt.Stringer.
func (m UnknownProtoMode) String() string {
	switch m {
	case UnknownDrop:
		return "drop"
	case UnknownTranslateIPOnly:
		return "ip-only"
	case UnknownPassUntouched:
		return "untouched"
	}
	return "?"
}

// UDPTimeouts is the state-dependent UDP binding timeout triple. A
// binding's timer is re-armed on every packet with the value matching
// the traffic pattern seen so far:
//
//   - Outbound: only outbound packets seen (the paper's UDP-1 regime)
//   - Inbound: inbound packets seen, but no outbound since the binding's
//     creation packet (UDP-2)
//   - Bidir: outbound traffic after inbound — genuinely two-way (UDP-3)
type UDPTimeouts struct {
	Outbound time.Duration
	Inbound  time.Duration
	Bidir    time.Duration
}

// Timeouts every device shares: the paper measured none of them
// separately, so no profile varies them.
const (
	// reuseQuarantine is how long an expired flow's port stays blocked
	// under a no-reuse policy (!ReuseExpiredBinding).
	reuseQuarantine = 120 * time.Second
	// tcpTransitory is the timeout of half-open or closing TCP
	// bindings (RFC 5382's 4 min floor for transitory connections).
	tcpTransitory = 4 * time.Minute
	// icmpQueryTimeout bounds ICMP echo (query) bindings (RFC 5508's
	// 60 s floor).
	icmpQueryTimeout = 60 * time.Second
)

// Policy is the complete behavioral profile of one NAT device. All
// fields are externally observable via the paper's measurements.
//
// The Mapping, Filtering and PortAlloc axes compose the RFC 4787/5382
// behavior modules (see behavior.go). Their zero values are
// address-and-port-dependent mapping, address-and-port-dependent
// filtering and sequential port allocation. Every Table 1 device is
// APDM×APDF, so its profile sets only PortAlloc, to
// PortAllocPreserving where the device preserves ports.
type Policy struct {
	// Mapping selects the RFC 4787 mapping behavior: when flows from
	// one internal endpoint share an external port. Zero = APDM.
	Mapping MappingBehavior
	// Filtering selects the RFC 4787 filtering behavior applied on the
	// inbound path, independently of Mapping. Zero = APDF.
	Filtering FilteringBehavior
	// PortAlloc selects how new mappings' external ports are chosen.
	// Zero = sequential.
	PortAlloc PortAllocBehavior

	// UDP is the default UDP timeout triple.
	UDP UDPTimeouts
	// UDPServices overrides UDP per well-known destination port
	// (UDP-5; e.g. dl8 times DNS bindings out sooner).
	UDPServices map[uint16]UDPTimeouts

	// TimerGranularity quantises binding expiry: expiries only take
	// effect on ticks of this period (random phase per power-cycle).
	// Zero means exact timers. Coarse values produce the wide
	// inter-quartile ranges the paper saw on we/al/je/ng5.
	TimerGranularity time.Duration

	// ReuseExpiredBinding: a flow recreated shortly after its binding
	// expired gets the same external port again. When false the old
	// port is quarantined and a different one is chosen (the paper's
	// UDP-4 "new binding" devices); it stays blocked for
	// reuseQuarantine.
	ReuseExpiredBinding bool

	// TCPEstablished is the idle timeout of established TCP bindings
	// (TCP-1). Zero means bindings are kept forever (the paper's ">24 h"
	// devices).
	TCPEstablished time.Duration
	// MaxTCPBindings caps the TCP binding table (TCP-4). Zero = 65535.
	MaxTCPBindings int

	// ICMPTCP and ICMPUDP give the handling mode per error kind for
	// errors relating to TCP and UDP flows; ICMPEcho is the mode for
	// errors about ICMP echo flows (Table 2's standalone "ICMP:
	// Host Unreach." column).
	ICMPTCP  [netpkt.NumICMPKinds]ICMPMode
	ICMPUDP  [netpkt.NumICMPKinds]ICMPMode
	ICMPEcho ICMPMode

	// UnknownProto is the fallback for unrecognised transports.
	UnknownProto UnknownProtoMode
	// UnknownInboundDrop, with UnknownTranslateIPOnly, translates
	// outbound unknown-protocol packets but drops the replies (a
	// stateless outbound-only rewrite): the paper's two devices that
	// rewrite the IP source yet still fail SCTP.
	UnknownInboundDrop bool

	// DecrementTTL: most devices decrement the IP TTL when forwarding;
	// the paper observed some do not (§4.4).
	DecrementTTL bool
	// HonorRecordRoute: few devices record their address in a Record
	// Route IP option (§4.4).
	HonorRecordRoute bool
	// Hairpinning: LAN-to-LAN traffic addressed to the external address
	// is looped back (related work §2).
	Hairpinning bool
}

// withDefaults fills unset fields with sensible values.
func (p Policy) withDefaults() Policy {
	if p.UDP.Outbound == 0 {
		p.UDP.Outbound = 120 * time.Second
	}
	if p.UDP.Inbound == 0 {
		p.UDP.Inbound = p.UDP.Outbound
	}
	if p.UDP.Bidir == 0 {
		p.UDP.Bidir = p.UDP.Inbound
	}
	if p.MaxTCPBindings == 0 {
		p.MaxTCPBindings = 65535
	}
	return p
}

// AllICMP returns an ICMP mode array with every kind set to mode.
func AllICMP(mode ICMPMode) [netpkt.NumICMPKinds]ICMPMode {
	var a [netpkt.NumICMPKinds]ICMPMode
	for i := range a {
		a[i] = mode
	}
	return a
}

// ICMPOnly returns a mode array with the listed kinds set to mode and
// everything else set to ICMPDrop.
func ICMPOnly(mode ICMPMode, kinds ...netpkt.ICMPKind) [netpkt.NumICMPKinds]ICMPMode {
	var a [netpkt.NumICMPKinds]ICMPMode
	for _, k := range kinds {
		a[k] = mode
	}
	return a
}
