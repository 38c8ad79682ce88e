package netpkt

import (
	"testing"
)

// The marshal/parse benchmarks model one packet hop: build the
// transport segment, wrap it in IPv4, then parse both layers back the
// way stack.recvIP and the transport stacks do.

var (
	benchSrc = Addr4(10, 0, 0, 2)
	benchDst = Addr4(192, 0, 2, 1)
)

func benchPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

func BenchmarkUDPMarshalParse(b *testing.B) {
	u := &UDP{SrcPort: 4000, DstPort: 53, Payload: benchPayload(64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := u.AppendMarshal(nil, benchSrc, benchDst)
		var got UDP
		err := got.Parse(wire, benchSrc, benchDst, true)
		if err != nil || got.DstPort != 53 {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPMarshalParse(b *testing.B) {
	t := &TCP{SrcPort: 4000, DstPort: 80, Seq: 100, Ack: 7, Flags: TCPAck | TCPPsh, Window: 65535, Payload: benchPayload(512)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := t.Marshal(benchSrc, benchDst)
		var got TCP
		err := got.Parse(wire, benchSrc, benchDst, true)
		if err != nil || got.DstPort != 80 {
			b.Fatal(err)
		}
	}
}

func BenchmarkIPv4MarshalParse(b *testing.B) {
	ip := &IPv4{TTL: 64, Protocol: ProtoUDP, Src: benchSrc, Dst: benchDst, Payload: benchPayload(576)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := ip.Marshal()
		got, err := ParseIPv4(wire)
		if err != nil || got.Protocol != ProtoUDP {
			b.Fatal(err)
		}
	}
}

// BenchmarkHop is a full emulated hop: UDP in IPv4, marshal both
// layers, parse both layers, checksums verified throughout.
func BenchmarkHop(b *testing.B) {
	u := &UDP{SrcPort: 4000, DstPort: 53, Payload: benchPayload(128)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := &IPv4{TTL: 64, Protocol: ProtoUDP, Src: benchSrc, Dst: benchDst,
			Payload: u.AppendMarshal(nil, benchSrc, benchDst)}
		wire := ip.Marshal()
		gotIP, err := ParseIPv4(wire)
		if err != nil {
			b.Fatal(err)
		}
		if err := new(UDP).Parse(gotIP.Payload, gotIP.Src, gotIP.Dst, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHopPooled is BenchmarkHop on the pooled, struct-reusing hot
// path the simulator actually runs: AppendMarshal into Pool.GetBuf
// buffers, Parse into reused structs, PutBuf when the buffer dies.
// Steady state must be allocation-free.
func BenchmarkHopPooled(b *testing.B) {
	u := &UDP{SrcPort: 4000, DstPort: 53, Payload: benchPayload(128)}
	var pool Pool
	var ipIn IPv4
	var udpIn UDP
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := u.AppendMarshal(pool.GetBuf(8+len(u.Payload)), benchSrc, benchDst)
		ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: benchSrc, Dst: benchDst, Payload: seg}
		wire := ip.MarshalPooled(&pool)
		pool.PutBuf(seg)
		if err := ipIn.Parse(wire); err != nil {
			b.Fatal(err)
		}
		if err := udpIn.Parse(ipIn.Payload, ipIn.Src, ipIn.Dst, true); err != nil {
			b.Fatal(err)
		}
		pool.PutBuf(wire)
	}
}

func BenchmarkTransportChecksum(b *testing.B) {
	seg := benchPayload(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransportChecksum(benchSrc, benchDst, ProtoTCP, seg)
	}
}
