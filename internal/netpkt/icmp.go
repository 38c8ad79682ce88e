package netpkt

import (
	"encoding/binary"
	"fmt"
)

// ICMP message types.
const (
	ICMPEchoReply       = 0
	ICMPDestUnreachable = 3
	ICMPSourceQuench    = 4
	ICMPEchoRequest     = 8
	ICMPTimeExceeded    = 11
	ICMPParamProblem    = 12
)

// ICMP Destination Unreachable codes.
const (
	ICMPCodeNetUnreachable   = 0
	ICMPCodeHostUnreachable  = 1
	ICMPCodeProtoUnreachable = 2
	ICMPCodePortUnreachable  = 3
	ICMPCodeFragNeeded       = 4
	ICMPCodeSrcRouteFailed   = 5
)

// ICMP Time Exceeded codes.
const (
	ICMPCodeTTLExceeded        = 0
	ICMPCodeReassemblyExceeded = 1
)

// ICMP is an ICMPv4 message. For error messages, Body carries the
// embedded original datagram (IP header + at least 8 bytes of its
// payload). For echo messages, Body is the echo payload and the ID/Seq
// fields are used.
type ICMP struct {
	Type uint8
	Code uint8
	// Rest is the second 32-bit word of the header: echo ID/seq, the
	// Fragmentation-Needed next-hop MTU, or the Parameter Problem
	// pointer, depending on Type.
	Rest uint32
	Body []byte
}

// IsError reports whether the message is an ICMP error (carries an
// embedded datagram) as opposed to an echo/informational message.
func (ic *ICMP) IsError() bool {
	switch ic.Type {
	case ICMPDestUnreachable, ICMPSourceQuench, ICMPTimeExceeded, ICMPParamProblem:
		return true
	}
	return false
}

// Marshal serializes the message with its checksum.
func (ic *ICMP) Marshal() []byte { return ic.AppendMarshal(nil) }

// AppendMarshal serializes the message onto dst and returns the
// extended slice. It is the allocation-free core of Marshal.
func (ic *ICMP) AppendMarshal(dst []byte) []byte {
	off := len(dst)
	dst = growZero(dst, 8+len(ic.Body))
	b := dst[off:]
	b[0] = ic.Type
	b[1] = ic.Code
	binary.BigEndian.PutUint32(b[4:8], ic.Rest)
	copy(b[8:], ic.Body)
	binary.BigEndian.PutUint16(b[2:4], Checksum(b))
	return dst
}

// ParseICMP decodes an ICMP message, verifying the checksum when verify
// is true.
//
// The returned message's Body aliases b (see ParseIPv4 for the
// ownership rules).
func ParseICMP(b []byte, verify bool) (*ICMP, error) {
	ic := new(ICMP)
	err := ic.Parse(b, verify)
	if err != nil && err != ErrBadChecksum {
		return nil, err
	}
	return ic, err
}

// Parse decodes b into ic, overwriting every field. It is the
// allocation-free core of ParseICMP (aliasing semantics identical).
func (ic *ICMP) Parse(b []byte, verify bool) error {
	if len(b) < 8 {
		return ErrShortPacket
	}
	*ic = ICMP{
		Type: b[0],
		Code: b[1],
		Rest: binary.BigEndian.Uint32(b[4:8]),
		Body: b[8:len(b):len(b)],
	}
	if verify && Checksum(b) != 0 {
		return ErrBadChecksum
	}
	return nil
}

// ICMPKind identifies one of the ICMP error classes measured in the
// paper's Table 2.
type ICMPKind int

// The ten ICMP error kinds probed per transport protocol, in the order
// of the paper's Table 2 columns.
const (
	KindReassemblyTimeExceeded ICMPKind = iota
	KindFragNeeded
	KindParamProblem
	KindSrcRouteFailed
	KindSourceQuench
	KindTTLExceeded
	KindHostUnreachable
	KindNetUnreachable
	KindPortUnreachable
	KindProtoUnreachable
	// NumICMPKinds counts the probed kinds. Deliberately untyped (the
	// explicit `= iota` drops the inherited ICMPKind type): it is an
	// array length and loop bound, not a kind, so switches over
	// ICMPKind need not — and must not — "cover" it.
	NumICMPKinds = iota
)

// TypeCode returns the on-wire ICMP type and code for the kind.
func (k ICMPKind) TypeCode() (typ, code uint8) {
	switch k {
	case KindReassemblyTimeExceeded:
		return ICMPTimeExceeded, ICMPCodeReassemblyExceeded
	case KindFragNeeded:
		return ICMPDestUnreachable, ICMPCodeFragNeeded
	case KindParamProblem:
		return ICMPParamProblem, 0
	case KindSrcRouteFailed:
		return ICMPDestUnreachable, ICMPCodeSrcRouteFailed
	case KindSourceQuench:
		return ICMPSourceQuench, 0
	case KindTTLExceeded:
		return ICMPTimeExceeded, ICMPCodeTTLExceeded
	case KindHostUnreachable:
		return ICMPDestUnreachable, ICMPCodeHostUnreachable
	case KindNetUnreachable:
		return ICMPDestUnreachable, ICMPCodeNetUnreachable
	case KindPortUnreachable:
		return ICMPDestUnreachable, ICMPCodePortUnreachable
	case KindProtoUnreachable:
		return ICMPDestUnreachable, ICMPCodeProtoUnreachable
	}
	panic(fmt.Sprintf("netpkt: unknown ICMPKind %d", k))
}

// KindOf maps an on-wire type/code to an ICMPKind; ok is false for
// informational messages (echo) and unmeasured codes.
func KindOf(typ, code uint8) (ICMPKind, bool) {
	switch typ {
	case ICMPTimeExceeded:
		switch code {
		case ICMPCodeReassemblyExceeded:
			return KindReassemblyTimeExceeded, true
		case ICMPCodeTTLExceeded:
			return KindTTLExceeded, true
		}
	case ICMPParamProblem:
		return KindParamProblem, true
	case ICMPSourceQuench:
		return KindSourceQuench, true
	case ICMPDestUnreachable:
		switch code {
		case ICMPCodeFragNeeded:
			return KindFragNeeded, true
		case ICMPCodeSrcRouteFailed:
			return KindSrcRouteFailed, true
		case ICMPCodeHostUnreachable:
			return KindHostUnreachable, true
		case ICMPCodeNetUnreachable:
			return KindNetUnreachable, true
		case ICMPCodePortUnreachable:
			return KindPortUnreachable, true
		case ICMPCodeProtoUnreachable:
			return KindProtoUnreachable, true
		}
	}
	return 0, false
}

// String implements fmt.Stringer using the paper's column captions.
func (k ICMPKind) String() string {
	switch k {
	case KindReassemblyTimeExceeded:
		return "Reass.Time.Ex."
	case KindFragNeeded:
		return "Frag.Needed"
	case KindParamProblem:
		return "Param.Prob."
	case KindSrcRouteFailed:
		return "Src.Route.Fail."
	case KindSourceQuench:
		return "Source.Quench"
	case KindTTLExceeded:
		return "TTL.Exceeded"
	case KindHostUnreachable:
		return "Host.Unreach."
	case KindNetUnreachable:
		return "Net.Unreach."
	case KindPortUnreachable:
		return "Port.Unreach."
	case KindProtoUnreachable:
		return "Proto.Unreach."
	}
	return fmt.Sprintf("ICMPKind(%d)", int(k))
}
