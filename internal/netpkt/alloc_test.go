package netpkt

import (
	"bytes"
	"testing"

	"hgw/internal/obs"
)

// TestAllocsMarshalParse pins the allocation counts of the codec hot
// paths. The pooled, struct-reusing path (what stack/netem run per
// packet in steady state) must be allocation-free; the convenience
// wrappers may allocate exactly their documented envelope (result
// struct and, for Marshal, the wire buffer).
func TestAllocsMarshalParse(t *testing.T) {
	src, dst := Addr4(10, 0, 0, 2), Addr4(192, 0, 2, 1)
	payload := bytes.Repeat([]byte{0xa5}, 64)

	// Pooled UDP-in-IPv4 round trip, structs reused: zero allocs.
	u := &UDP{SrcPort: 4000, DstPort: 53, Payload: payload}
	var ipIn IPv4
	var udpIn UDP
	if n := testing.AllocsPerRun(100, func() {
		seg := u.AppendMarshal(GetBuf(8+len(payload)), src, dst)
		ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst, Payload: seg}
		wire := ip.MarshalPooled()
		PutBuf(seg)
		if err := ipIn.Parse(wire); err != nil {
			t.Fatal(err)
		}
		if err := udpIn.Parse(ipIn.Payload, ipIn.Src, ipIn.Dst, true); err != nil {
			t.Fatal(err)
		}
		PutBuf(wire)
	}); n != 0 {
		t.Fatalf("pooled UDP/IPv4 round trip allocates %.1f objects per run, want 0", n)
	}

	// Pooled TCP round trip, structs reused: zero allocs.
	seg := &TCP{SrcPort: 4000, DstPort: 80, Seq: 9, Ack: 7, Flags: TCPAck, Window: 65535, Payload: payload}
	var tcpIn TCP
	if n := testing.AllocsPerRun(100, func() {
		wire := seg.AppendMarshal(GetBuf(20+len(payload)), src, dst)
		if err := tcpIn.Parse(wire, src, dst, true); err != nil {
			t.Fatal(err)
		}
		PutBuf(wire)
	}); n != 0 {
		t.Fatalf("pooled TCP round trip allocates %.1f objects per run, want 0", n)
	}

	// TransportChecksum folds the pseudo-header arithmetically: no
	// staging buffer.
	if n := testing.AllocsPerRun(100, func() {
		TransportChecksum(src, dst, ProtoTCP, payload)
	}); n != 0 {
		t.Fatalf("TransportChecksum allocates %.1f objects per run, want 0", n)
	}

	// Convenience wrappers: Marshal = 1 (wire buffer); ParseUDP = 1
	// (result struct; the payload aliases the input).
	if n := testing.AllocsPerRun(100, func() {
		u.Marshal(src, dst)
	}); n > 1 {
		t.Fatalf("UDP.Marshal allocates %.1f objects per run, want <= 1", n)
	}
	wire := u.Marshal(src, dst)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseUDP(wire, src, dst, true); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("ParseUDP allocates %.1f objects per run, want <= 1", n)
	}
}

// TestParseAliasesInput checks the zero-copy contract: parsed views
// alias the wire buffer (mutations show through) and Clone severs the
// aliasing.
func TestParseAliasesInput(t *testing.T) {
	src, dst := Addr4(10, 0, 0, 2), Addr4(192, 0, 2, 1)
	u := &UDP{SrcPort: 7, DstPort: 9, Payload: []byte("aliased-payload")}
	ip := &IPv4{TTL: 3, Protocol: ProtoUDP, Src: src, Dst: dst, Payload: u.Marshal(src, dst)}
	wire := ip.Marshal()

	view, err := ParseIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	cloned := view.Clone()

	// Mutate the wire buffer under the parsed view.
	wire[len(wire)-1] ^= 0xff
	if view.Payload[len(view.Payload)-1] != wire[len(wire)-1] {
		t.Fatal("parsed view does not alias the wire buffer")
	}
	if cloned.Payload[len(cloned.Payload)-1] == wire[len(wire)-1] {
		t.Fatal("Clone still aliases the wire buffer")
	}
}

// TestBufPoolRoundTrip checks that the pool recycles its own buffers
// and safely ignores foreign or clipped slices.
func TestBufPoolRoundTrip(t *testing.T) {
	b := GetBuf(64)
	if len(b) != 0 || cap(b) < 64 {
		t.Fatalf("GetBuf(64) = len %d cap %d", len(b), cap(b))
	}
	b = append(b, bytes.Repeat([]byte{1}, 64)...)
	PutBuf(b) // must not panic

	// Clipped sub-slices (parsed views) and foreign buffers are ignored.
	PutBuf(b[8:32:32])
	PutBuf(make([]byte, 100))

	big := GetBuf(1 << 20)
	if cap(big) < 1<<20 {
		t.Fatalf("oversize GetBuf cap = %d", cap(big))
	}
	PutBuf(big) // oversize: ignored, must not panic

	f := GetFrame()
	f.VLAN = 42
	PutFrame(f)
	if g := GetFrame(); g.VLAN != 0 {
		t.Fatal("PutFrame leaked fields into the pool")
	}
}

// TestMarshalPooledBytesIdentical checks that the pooled marshal path
// emits byte-identical wire format to the plain allocator path, even
// when the pooled buffer previously held other traffic (stale-byte
// leakage through padding would break equal-seed determinism).
func TestMarshalPooledBytesIdentical(t *testing.T) {
	src, dst := Addr4(10, 0, 0, 2), Addr4(192, 0, 2, 1)
	// Dirty a pool buffer, then return it.
	dirty := GetBuf(512)
	dirty = append(dirty, bytes.Repeat([]byte{0xff}, 512)...)
	PutBuf(dirty)

	ip := &IPv4{
		TTL: 9, Protocol: ProtoUDP, Src: src, Dst: dst,
		Options: []byte{IPOptNop, IPOptNop, IPOptEnd}, // forces checksum-covered padding
		Payload: []byte("pooled-vs-plain"),
	}
	plain := ip.Marshal()
	pooled := ip.MarshalPooled()
	if !bytes.Equal(plain, pooled) {
		t.Fatalf("pooled marshal differs from plain:\nplain  %x\npooled %x", plain, pooled)
	}
	PutBuf(pooled)
}

// TestReserveMarshalsInPlace checks the Reserve path: the header is
// written in front of the payload the sender appended, over whatever
// stale bytes the buffer held, and the wire image is the reserved
// buffer itself, byte-identical to a plain marshal (bad-checksum
// flag and option padding included). A payload moved out of the
// reserved buffer falls back to a copying marshal.
func TestReserveMarshalsInPlace(t *testing.T) {
	src, dst := Addr4(10, 0, 0, 2), Addr4(192, 0, 2, 1)
	for _, bad := range []bool{false, true} {
		ip := &IPv4{
			ID: 7, TTL: 9, Protocol: ProtoUDP, Src: src, Dst: dst, BadChecksum: bad,
			Options: []byte{IPOptNop, IPOptNop, IPOptEnd},
		}
		p := ip.Reserve(16)
		full := ip.Buf[:cap(ip.Buf)]
		for i := range full {
			full[i] = 0xff
		}
		ip.Payload = append(p, "in-place-payload"...)
		plain := ip.Marshal()
		buf := ip.Buf[:1]
		wire := ip.MarshalPooled()
		if !bytes.Equal(plain, wire) {
			t.Fatalf("bad=%v: in-place marshal differs:\nplain %x\nwire  %x", bad, plain, wire)
		}
		if &wire[0] != &buf[0] || ip.Buf != nil {
			t.Fatalf("bad=%v: wire image is not the reserved buffer handed over", bad)
		}
		PutBuf(wire)
	}

	ip := &IPv4{TTL: 9, Protocol: ProtoUDP, Src: src, Dst: dst}
	ip.Reserve(8)
	ip.Payload = []byte("elsewhere")
	buf := ip.Buf[:1]
	if wire := ip.MarshalPooled(); &wire[0] == &buf[0] || !bytes.Equal(wire, ip.Marshal()) || ip.Buf == nil {
		t.Fatalf("moved payload: wire %x, Buf kept %v", wire, ip.Buf != nil)
	}
}

// TestPoolCountersTrackTraffic checks the pool reports gets/puts (and
// frame traffic) to obs.Proc. Miss counts are GC-dependent, so only
// monotonicity is asserted there; the alloc pins above already prove
// the accounting itself is free.
func TestPoolCountersTrackTraffic(t *testing.T) {
	before := obs.Proc.Snapshot()
	b := GetBuf(64)
	PutBuf(b)
	f := GetFrame()
	PutFrame(f)
	GetBuf(1 << 20) // oversize: allocator path, not counted
	after := obs.Proc.Snapshot()
	if got := after.PoolGets - before.PoolGets; got != 1 {
		t.Errorf("pool gets moved by %d, want 1 (oversize must not count)", got)
	}
	if got := after.PoolPuts - before.PoolPuts; got != 1 {
		t.Errorf("pool puts moved by %d, want 1", got)
	}
	if got := after.FrameGets - before.FrameGets; got != 1 {
		t.Errorf("frame gets moved by %d, want 1", got)
	}
	if got := after.FramePuts - before.FramePuts; got != 1 {
		t.Errorf("frame puts moved by %d, want 1", got)
	}
	if after.PoolMisses < before.PoolMisses {
		t.Errorf("pool misses went backwards: %d -> %d", before.PoolMisses, after.PoolMisses)
	}
}
