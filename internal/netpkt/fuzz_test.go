package netpkt

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// FuzzParseIPv4 feeds arbitrary bytes through Parse, ParseIPv4 and
// Pool.ParsePooled. None may panic; all three must agree; every view
// (Options, Payload), up to its capacity, must lie inside the input
// although the input has spare capacity, as a pooled frame buffer
// does; and a record reused after an earlier packet must decode
// exactly like a fresh one, keeping nothing of the earlier packet.
func FuzzParseIPv4(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := append(make([]byte, 0, len(data)+64), data...)

		fresh := new(IPv4)
		ferr := fresh.Parse(b)
		if ferr == nil || ferr == ErrBadChecksum {
			inside(t, "Options", fresh.Options, b)
			inside(t, "Payload", fresh.Payload, b)
		}

		// A record that carried a packet with options, a payload and a
		// buffer, then recycled and reused.
		var pool Pool
		prev := pool.GetPacket()
		if err := prev.Parse(richPacket()); err != nil {
			t.Fatal(err)
		}
		prev.Buf = make([]byte, 0, bufCapSmall)
		//hgwlint:allow poollint the next draw must hand this very record back, zeroed
		pool.PutPacket(prev)
		if got := pool.GetPacket(); got != prev || !reflect.DeepEqual(*got, IPv4{pooled: true}) {
			t.Fatalf("recycled record holds %+v", *got)
		}
		reused := prev
		reused.Parse(richPacket())
		reused.Buf = make([]byte, 0, bufCapSmall)
		rerr := reused.Parse(b)
		if fmt.Sprint(rerr) != fmt.Sprint(ferr) {
			t.Fatalf("reused record: err %v, fresh: %v", rerr, ferr)
		}
		if ferr == nil || ferr == ErrBadChecksum {
			want := *fresh
			want.pooled = true
			if !reflect.DeepEqual(*reused, want) {
				t.Fatalf("reused record decoded %+v, fresh %+v", *reused, *fresh)
			}
		}

		ip, err := ParseIPv4(b)
		pp, perr := pool.ParsePooled(b)
		if fmt.Sprint(err) != fmt.Sprint(perr) || (ip == nil) != (pp == nil) {
			t.Fatalf("ParseIPv4 = %v, %v; ParsePooled = %v, %v", ip, err, pp, perr)
		}
		if ip != nil {
			if !pp.pooled {
				t.Fatal("ParsePooled returned an unpooled record")
			}
			pp.pooled = false
			if !reflect.DeepEqual(ip, pp) {
				t.Fatalf("ParseIPv4 = %+v, ParsePooled = %+v", *ip, *pp)
			}
		}
	})
}

// richPacket is a valid packet with Record Route options and a payload.
func richPacket() []byte {
	ip := &IPv4{TTL: 9, Protocol: ProtoUDP, Src: srcA, Dst: dstA,
		Options: RecordRouteOption(2), Payload: []byte("previous packet")}
	return ip.Marshal()
}

// inside fails unless view v, up to its capacity, lies within b's
// length.
func inside(t *testing.T, name string, v, b []byte) {
	t.Helper()
	if cap(v) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	if p < lo || p+uintptr(cap(v)) > lo+uintptr(len(b)) {
		t.Fatalf("%s (cap %d) reaches outside the %d input bytes", name, cap(v), len(b))
	}
}
