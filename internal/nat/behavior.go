package nat

// This file defines the composable behavior axes of RFC 4787 (UDP) and
// RFC 5382 (TCP): how a NAT maps internal endpoints to external ports
// (the mapping behavior), which inbound packets it lets through (the
// filtering behavior), and how it picks external port numbers (the port
// allocation behavior). The engine composes one policy per axis. The
// zero values are address-and-port-dependent mapping and filtering and
// sequential allocation; the paper's entire Table 1 population shares
// the first two and differs only in whether it preserves ports.

// MappingBehavior says when two outbound flows from the same internal
// endpoint reuse one external port (RFC 4787 §4.1). It decides the
// shape of the first level of the binding table: one mapping (and one
// external port) per internal endpoint, per destination address, or per
// destination endpoint.
type MappingBehavior int

const (
	// MappingAddressAndPortDependent (APDM) allocates a distinct
	// mapping per destination endpoint — the classic "symmetric" NAT
	// and the zero-value default (every Table 1 device behaves this
	// way; port preservation can still make the ports coincide).
	MappingAddressAndPortDependent MappingBehavior = iota
	// MappingAddressDependent (ADM) reuses a mapping for all flows to
	// the same destination address, regardless of destination port.
	MappingAddressDependent
	// MappingEndpointIndependent (EIM) reuses one mapping — one
	// external port — for every flow from the internal endpoint, the
	// RFC 4787 REQ-1 behavior that makes traversal easy.
	MappingEndpointIndependent
)

// String implements fmt.Stringer.
func (m MappingBehavior) String() string {
	switch m {
	case MappingEndpointIndependent:
		return "endpoint-independent"
	case MappingAddressDependent:
		return "address-dependent"
	case MappingAddressAndPortDependent:
		return "address-and-port-dependent"
	}
	return "?"
}

// Short returns the conventional abbreviation (EIM/ADM/APDM).
func (m MappingBehavior) Short() string {
	switch m {
	case MappingEndpointIndependent:
		return "EIM"
	case MappingAddressDependent:
		return "ADM"
	case MappingAddressAndPortDependent:
		return "APDM"
	}
	return "?"
}

// FilteringBehavior says which inbound packets addressed to an active
// external port are let through (RFC 4787 §5). It is applied on the
// inbound path independently of the mapping behavior.
type FilteringBehavior int

const (
	// FilteringAddressAndPortDependent (APDF) accepts only packets
	// from a remote endpoint the internal endpoint has sent to — an
	// exact-session match, the zero-value default and the pre-refactor
	// engine's only behavior.
	FilteringAddressAndPortDependent FilteringBehavior = iota
	// FilteringAddressDependent (ADF) accepts packets from any port of
	// a remote address the internal endpoint has sent to from this
	// external port.
	FilteringAddressDependent
	// FilteringEndpointIndependent (EIF) accepts packets from anywhere
	// as long as the external port has an active mapping ("full cone").
	FilteringEndpointIndependent
)

// String implements fmt.Stringer.
func (f FilteringBehavior) String() string {
	switch f {
	case FilteringEndpointIndependent:
		return "endpoint-independent"
	case FilteringAddressDependent:
		return "address-dependent"
	case FilteringAddressAndPortDependent:
		return "address-and-port-dependent"
	}
	return "?"
}

// Short returns the conventional abbreviation (EIF/ADF/APDF).
func (f FilteringBehavior) Short() string {
	switch f {
	case FilteringEndpointIndependent:
		return "EIF"
	case FilteringAddressDependent:
		return "ADF"
	case FilteringAddressAndPortDependent:
		return "APDF"
	}
	return "?"
}

// PortAllocBehavior says how a new mapping's external port is chosen.
type PortAllocBehavior int

const (
	// PortAllocSequential hands out ports from a monotonically
	// advancing counter starting at 30000 (the zero value).
	PortAllocSequential PortAllocBehavior = iota
	// PortAllocPreserving prefers the internal source port (port
	// preservation, with overloading across remote endpoints), falling
	// back to the sequential scan on conflict.
	PortAllocPreserving
	// PortAllocContiguous allocates each internal endpoint's next
	// mapping adjacent to its previous one (the port-prediction-
	// friendly delta-1 allocation some devices exhibit).
	PortAllocContiguous
	// PortAllocRandom draws uniformly from the 30000+ range (port
	// randomization, RFC 6056-style).
	PortAllocRandom
)

// String implements fmt.Stringer.
func (a PortAllocBehavior) String() string {
	switch a {
	case PortAllocPreserving:
		return "preserving"
	case PortAllocSequential:
		return "sequential"
	case PortAllocContiguous:
		return "contiguous"
	case PortAllocRandom:
		return "random"
	}
	return "?"
}

// PredictTraversal predicts whether the classic rendezvous-then-punch
// UDP hole-punching procedure (Ford et al.) succeeds between a host
// behind NAT A and a host behind NAT B, from the two devices' behavior
// classes alone. preserveX says whether side X's allocator preserves
// the internal source port (which makes its punched port predictable
// even under address-and-port-dependent mapping — the reason punching
// works across most of the paper's population).
//
// A side's packets get through the peer when the peer targeted the
// right port and the peer's punch opened a permissive-enough filter:
// endpoint-independent filtering needs neither, address-dependent
// filtering needs the local mapping to be predictable (so the punch
// session lives on the targeted port), and address-and-port-dependent
// filtering additionally needs the remote's source port to match its
// rendezvous observation.
func PredictTraversal(mapA MappingBehavior, filtA FilteringBehavior, preserveA bool,
	mapB MappingBehavior, filtB FilteringBehavior, preserveB bool) bool {

	predA := mapA == MappingEndpointIndependent || preserveA
	predB := mapB == MappingEndpointIndependent || preserveB
	deliver := func(pred, peerPred bool, filt FilteringBehavior) bool {
		switch filt {
		case FilteringEndpointIndependent:
			return true
		case FilteringAddressDependent:
			return pred
		default: // FilteringAddressAndPortDependent
			return pred && peerPred
		}
	}
	return deliver(predA, predB, filtA) && deliver(predB, predA, filtB)
}
