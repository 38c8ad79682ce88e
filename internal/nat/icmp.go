package nat

import (
	"encoding/binary"

	"hgw/internal/netpkt"
)

// echoID extracts the query ID from an ICMP echo message body (the high
// 16 bits of the Rest word, i.e. bytes 4..6 of the ICMP message).
func echoID(icmpBytes []byte) (uint16, bool) {
	if len(icmpBytes) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint16(icmpBytes[4:6]), true
}

func setEchoID(icmpBytes []byte, id uint16) {
	old := binary.BigEndian.Uint16(icmpBytes[4:6])
	binary.BigEndian.PutUint16(icmpBytes[4:6], id)
	// Incrementally fix the ICMP checksum.
	sum := binary.BigEndian.Uint16(icmpBytes[2:4])
	binary.BigEndian.PutUint16(icmpBytes[2:4], netpkt.ChecksumAdjustU16(sum, old, id))
}

// outboundICMP handles LAN-to-WAN ICMP: echo requests create query
// bindings; locally generated errors about inbound flows are translated.
func (e *Engine) outboundICMP(ip *netpkt.IPv4) bool {
	if len(ip.Payload) < 8 {
		e.drop(DropICMPShort)
		return false
	}
	typ := ip.Payload[0]
	switch typ {
	case netpkt.ICMPEchoRequest:
		id, _ := echoID(ip.Payload)
		flow := flowOf(netpkt.ProtoICMP, ip.Src, id, ip.Dst, 0)
		b, ok := e.byFlow[flow]
		if !ok {
			b = e.newSession(flow)
			if b == nil {
				e.drop(DropICMPIDsExhausted)
				return false
			}
		}
		e.arm(b, icmpQueryTimeout)
		setEchoID(ip.Payload, b.ext)
		ip.Src = e.wan
		e.translated()
		return true

	case netpkt.ICMPDestUnreachable, netpkt.ICMPTimeExceeded, netpkt.ICMPSourceQuench, netpkt.ICMPParamProblem:
		// Error generated by the client about an inbound (already
		// LAN-translated) packet: the embedded datagram shows
		// server -> client(private). Reverse it to server -> wan:ext.
		body := ip.Payload[8:]
		inner, err := netpkt.ParseIPv4Lenient(body)
		if err != nil && inner == nil {
			e.drop(DropICMPInnerUnparseable)
			return false
		}
		var b *Binding
		switch inner.Protocol {
		case netpkt.ProtoUDP, netpkt.ProtoTCP:
			sport, dport, ok2 := transportPorts(inner)
			if !ok2 {
				e.drop(DropICMPInnerShort)
				return false
			}
			b = e.byFlow[flowOf(inner.Protocol, inner.Dst, dport, inner.Src, sport)]
		case netpkt.ProtoICMP:
			if id, ok2 := echoID(inner.Payload); ok2 {
				b = e.byFlow[flowOf(netpkt.ProtoICMP, inner.Dst, id, inner.Src, 0)]
			}
		}
		if b == nil {
			e.drop(DropICMPErrorNoBinding)
			return false
		}
		e.translateInnerToExternal(ip, b)
		ip.Src = e.wan
		e.translated()
		return true
	}
	e.drop(DropICMPUnhandled)
	return false
}

// inboundICMP handles WAN-to-LAN ICMP: echo replies for query bindings
// and transport-related errors, subject to the device's per-kind modes.
func (e *Engine) inboundICMP(ip *netpkt.IPv4) bool {
	if len(ip.Payload) < 8 {
		e.drop(DropICMPShort)
		return false
	}
	typ, code := ip.Payload[0], ip.Payload[1]
	if typ == netpkt.ICMPEchoReply {
		id, _ := echoID(ip.Payload)
		b, ok := e.byExt[extOf(netpkt.ProtoICMP, id, ip.Src, 0)]
		if !ok {
			e.drop(DropICMPNoBinding)
			return false
		}
		e.arm(b, icmpQueryTimeout)
		setEchoID(ip.Payload, b.flow.cport)
		ip.Dst = b.flow.client.addr()
		e.translated()
		return true
	}
	kind, isErr := netpkt.KindOf(typ, code)
	if !isErr {
		e.drop(DropICMPNotError)
		return false
	}
	body := ip.Payload[8:]
	inner, err := netpkt.ParseIPv4Lenient(body)
	if err != nil && inner == nil {
		e.drop(DropICMPInnerUnparseable)
		return false
	}
	// The embedded datagram is the outbound packet as it appeared on the
	// WAN: src == our external address.
	var b *Binding
	var mode ICMPMode
	switch inner.Protocol {
	case netpkt.ProtoUDP, netpkt.ProtoTCP:
		sport, dport, ok2 := transportPorts(inner)
		if !ok2 {
			e.drop(DropICMPInnerShort)
			return false
		}
		b = e.byExt[extOf(inner.Protocol, sport, inner.Dst, dport)]
		if inner.Protocol == netpkt.ProtoTCP {
			mode = e.pol.ICMPTCP[kind]
		} else {
			mode = e.pol.ICMPUDP[kind]
		}
	case netpkt.ProtoICMP:
		id, ok2 := echoID(inner.Payload)
		if !ok2 {
			e.drop(DropICMPInnerShort)
			return false
		}
		b = e.byExt[extOf(netpkt.ProtoICMP, id, inner.Dst, 0)]
		mode = e.pol.ICMPEcho
	default:
		e.drop(DropICMPInnerProto)
		return false
	}
	if b == nil {
		e.drop(DropICMPErrorNoBinding)
		return false
	}
	switch mode {
	case ICMPDrop:
		e.drop(DropICMPPolicyDrop)
		return false
	case ICMPTranslate:
		e.translateInnerToInternal(ip, b, false)
	case ICMPNoInnerFix:
		// Forward with only the outer destination rewritten.
	case ICMPBadInnerIPChecksum:
		e.translateInnerToInternal(ip, b, true)
	case ICMPToRST:
		e.synthesizeRST(ip, b)
	}
	ip.Dst = b.flow.client.addr()
	e.translated()
	return true
}

func transportPorts(inner *netpkt.IPv4) (src, dst uint16, ok bool) {
	if len(inner.Payload) < 4 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(inner.Payload[0:2]), binary.BigEndian.Uint16(inner.Payload[2:4]), true
}

// translateInnerToInternal rewrites the embedded datagram of an inbound
// ICMP error from external form (wan:ext -> server) back to internal
// form (client:port -> server), fixing the embedded transport checksum
// incrementally and the embedded IP checksum from scratch. badIPCsum
// deliberately corrupts the embedded IP checksum afterwards (zy1/ls1).
func (e *Engine) translateInnerToInternal(ip *netpkt.IPv4, b *Binding, badIPCsum bool) {
	body := ip.Payload[8:]
	if len(body) < 20 {
		return
	}
	hl := int(body[0]&0x0f) * 4
	if hl < 20 || len(body) < hl {
		return
	}
	var oldAddr [4]byte
	copy(oldAddr[:], body[12:16])
	client4 := b.flow.client.as4()

	// Rewrite the embedded source address (the client's).
	copy(body[12:16], client4[:])
	trans := body[hl:]
	switch b.flow.proto {
	case netpkt.ProtoUDP, netpkt.ProtoTCP:
		if len(trans) >= 2 {
			var oldPort [2]byte
			copy(oldPort[:], trans[0:2])
			binary.BigEndian.PutUint16(trans[0:2], b.flow.cport)
			// Incrementally adjust the embedded transport checksum (it
			// covers the pseudo-header with the source address plus the
			// source port we changed).
			csumOff := 6
			if b.flow.proto == netpkt.ProtoTCP {
				csumOff = 16
			}
			if len(trans) >= csumOff+2 {
				sum := binary.BigEndian.Uint16(trans[csumOff : csumOff+2])
				if !(b.flow.proto == netpkt.ProtoUDP && sum == 0) {
					sum = netpkt.ChecksumAdjust(sum, oldAddr[:], client4[:])
					sum = netpkt.ChecksumAdjust(sum, oldPort[:], trans[0:2])
					binary.BigEndian.PutUint16(trans[csumOff:csumOff+2], sum)
				}
			}
		}
	case netpkt.ProtoICMP:
		if len(trans) >= 8 {
			var old [2]byte
			copy(old[:], trans[4:6])
			binary.BigEndian.PutUint16(trans[4:6], b.flow.cport)
			sum := binary.BigEndian.Uint16(trans[2:4])
			binary.BigEndian.PutUint16(trans[2:4], netpkt.ChecksumAdjust(sum, old[:], trans[4:6]))
		}
	}
	// Recompute the embedded IP header checksum.
	body[10], body[11] = 0, 0
	csum := netpkt.Checksum(body[:hl])
	if badIPCsum {
		csum ^= 0x5555
	}
	binary.BigEndian.PutUint16(body[10:12], csum)
	// Recompute the outer ICMP checksum.
	ip.Payload[2], ip.Payload[3] = 0, 0
	binary.BigEndian.PutUint16(ip.Payload[2:4], netpkt.Checksum(ip.Payload))
}

// translateInnerToExternal rewrites the embedded datagram of an outbound
// ICMP error from internal form (server -> client:port) to external form
// (server -> wan:ext).
func (e *Engine) translateInnerToExternal(ip *netpkt.IPv4, b *Binding) {
	body := ip.Payload[8:]
	if len(body) < 20 {
		return
	}
	hl := int(body[0]&0x0f) * 4
	if hl < 20 || len(body) < hl {
		return
	}
	var oldAddr [4]byte
	copy(oldAddr[:], body[16:20]) // embedded destination = client
	wan4 := e.wan.As4()
	copy(body[16:20], wan4[:])
	trans := body[hl:]
	switch b.flow.proto {
	case netpkt.ProtoUDP, netpkt.ProtoTCP:
		if len(trans) >= 4 {
			var oldPort [2]byte
			copy(oldPort[:], trans[2:4])
			binary.BigEndian.PutUint16(trans[2:4], b.ext)
			csumOff := 6
			if b.flow.proto == netpkt.ProtoTCP {
				csumOff = 16
			}
			if len(trans) >= csumOff+2 {
				sum := binary.BigEndian.Uint16(trans[csumOff : csumOff+2])
				if !(b.flow.proto == netpkt.ProtoUDP && sum == 0) {
					sum = netpkt.ChecksumAdjust(sum, oldAddr[:], wan4[:])
					sum = netpkt.ChecksumAdjust(sum, oldPort[:], trans[2:4])
					binary.BigEndian.PutUint16(trans[csumOff:csumOff+2], sum)
				}
			}
		}
	case netpkt.ProtoICMP:
		if len(trans) >= 8 {
			var old [2]byte
			copy(old[:], trans[4:6])
			binary.BigEndian.PutUint16(trans[4:6], b.ext)
			sum := binary.BigEndian.Uint16(trans[2:4])
			binary.BigEndian.PutUint16(trans[2:4], netpkt.ChecksumAdjust(sum, old[:], trans[4:6]))
		}
	}
	body[10], body[11] = 0, 0
	binary.BigEndian.PutUint16(body[10:12], netpkt.Checksum(body[:hl]))
	ip.Payload[2], ip.Payload[3] = 0, 0
	binary.BigEndian.PutUint16(ip.Payload[2:4], netpkt.Checksum(ip.Payload))
}

// synthesizeRST replaces an inbound TCP-related ICMP error with an
// (invalid) TCP RST toward the client, reproducing the paper's ls2.
// The caller still sets ip.Dst to the client.
func (e *Engine) synthesizeRST(ip *netpkt.IPv4, b *Binding) {
	rst := &netpkt.TCP{
		SrcPort: b.flow.sport,
		DstPort: b.flow.cport,
		Seq:     0xBAD5EC01, // bogus sequence number
		Flags:   netpkt.TCPRst,
	}
	ip.Protocol = netpkt.ProtoTCP
	ip.Src = b.flow.server.addr()
	ip.Payload = rst.Marshal(ip.Src, b.flow.client.addr())
}
