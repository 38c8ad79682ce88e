package nat

import (
	"testing"
	"testing/quick"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// Property-based tests over the binding table invariants.

// TestQuickExternalPortsUniquePerProto: however flows are created, two
// live bindings of the same protocol never share an external port with
// conflicting reverse mappings.
func TestQuickExternalPortsUniquePerProto(t *testing.T) {
	f := func(ports []uint16, preserve bool) bool {
		if len(ports) > 40 {
			ports = ports[:40]
		}
		alloc := PortAllocSequential
		if preserve {
			alloc = PortAllocPreserving
		}
		s := sim.New(3)
		e := newEng(s, Policy{PortAlloc: alloc, ReuseExpiredBinding: true})
		type key struct {
			ext   uint16
			sport uint16
		}
		seen := map[key]flowKey{}
		for i, sp := range ports {
			if sp == 0 {
				continue
			}
			dport := uint16(7000 + i%3)
			if _, ok := outboundUDP(e, sp, dport); !ok {
				continue
			}
			b, ok := e.byFlow[flowOf(netpkt.ProtoUDP, client, sp, server, dport)]
			if !ok {
				return false
			}
			k := key{b.ext, dport}
			if prev, dup := seen[k]; dup && prev != b.flow {
				return false // two flows share (ext, server-port): ambiguous reverse mapping
			}
			seen[k] = b.flow
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBindingCountsConsistent: creating flows then letting every
// timer fire leaves the table empty and the port set free.
func TestQuickBindingCountsConsistent(t *testing.T) {
	f := func(ports []uint16) bool {
		if len(ports) > 30 {
			ports = ports[:30]
		}
		s := sim.New(4)
		e := newEng(s, Policy{
			UDP:       UDPTimeouts{Outbound: 30 * time.Second},
			PortAlloc: PortAllocPreserving, ReuseExpiredBinding: true,
		})
		for _, sp := range ports {
			if sp == 0 {
				continue
			}
			outboundUDP(e, sp, 7000)
		}
		if len(e.byFlow) > len(ports) {
			return false
		}
		s.Run(0) // all expiry timers fire
		if len(e.byFlow) != 0 {
			return false
		}
		return len(e.portsInUse) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTranslationRoundtrip: outbound translation followed by the
// matching inbound translation restores the original client view, for
// arbitrary ports and payloads.
func TestQuickTranslationRoundtrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if sp == 0 || dp == 0 {
			return true
		}
		if len(payload) > 256 {
			payload = payload[:256]
		}
		s := sim.New(5)
		e := newEng(s, Policy{})
		u := &netpkt.UDP{SrcPort: sp, DstPort: dp, Payload: payload}
		out := &netpkt.IPv4{Protocol: netpkt.ProtoUDP, TTL: 64, Src: client, Dst: server,
			Payload: u.AppendMarshal(nil, client, server)}
		if !e.Outbound(out) {
			return false
		}
		// Checksum must verify on the translated pseudo-header.
		var tu netpkt.UDP
		if err := tu.Parse(out.Payload, wan, server, true); err != nil {
			return false
		}
		// Server echoes back to the external port.
		reply := &netpkt.UDP{SrcPort: dp, DstPort: tu.SrcPort, Payload: payload}
		in := &netpkt.IPv4{Protocol: netpkt.ProtoUDP, TTL: 64, Src: server, Dst: wan,
			Payload: reply.AppendMarshal(nil, server, wan)}
		if !e.Inbound(in) {
			return false
		}
		if in.Dst != client {
			return false
		}
		var ru netpkt.UDP
		if err := ru.Parse(in.Payload, server, client, true); err != nil {
			return false
		}
		return ru.DstPort == sp && string(ru.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTimeoutMonotonicity: a binding refreshed by traffic never
// expires earlier than its armed timeout, whatever the granularity.
func TestQuickTimeoutMonotonicity(t *testing.T) {
	f := func(timeoutSec uint8, granSec uint8) bool {
		timeout := time.Duration(timeoutSec%120+5) * time.Second
		gran := time.Duration(granSec%60) * time.Second
		s := sim.New(int64(timeoutSec)*251 + int64(granSec))
		e := newEng(s, Policy{
			UDP:              UDPTimeouts{Outbound: timeout, Inbound: timeout, Bidir: timeout},
			TimerGranularity: gran,
		})
		outboundUDP(e, 5000, 7000)
		// Refresh with inbound (quantised path).
		b, _ := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
		inboundUDP(e, b.ext, 7000)
		armed := s.Now()
		alive := true
		s.After(timeout-time.Second, func() {
			_, alive = e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
		})
		s.Run(armed + timeout - time.Second)
		if !alive {
			return false // expired before its timeout
		}
		s.Run(0)
		_, stillThere := e.byFlow[flowOf(netpkt.ProtoUDP, client, 5000, server, 7000)]
		return !stillThere // but it must expire eventually
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
