package probe

import (
	"fmt"
	"time"

	"hgw/internal/sim"
	"hgw/internal/testbed"
)

// BindRate measures how fast a gateway can create fresh UDP bindings
// (the paper's §5 lists "the rate at which NATs are capable of creating
// new bindings" as planned future work). The prober sends one datagram
// from the client's next ephemeral port back-to-back for the given
// duration and counts how many reach the server, as they land and then
// through a 50 ms straggler wait; the sample is that count per second.
// A datagram from a port the device has not seen yet is a new flow,
// hence a new binding at the NAT. But the ephemeral range is
// 32768–65535 and every device on the testbed draws from the one
// client's range, so at fast devices' rates it wraps within the run:
// on al and ap each device creates 16,384 bindings from ~88 k
// datagrams, and the rest refresh bindings that are still live.
//
// On the emulated devices the ceiling comes from the forwarding-plane
// rate (binding setup is one small packet each), so this doubles as an
// ablation of the forwarding-engine model.
func BindRate(tb *testbed.Testbed, s *sim.Sim, duration time.Duration, opts Options) []DeviceResult {
	opts = opts.withDefaults()
	if duration <= 0 {
		duration = 2 * time.Second
	}
	payload := []byte("bind-rate")
	return RunPerDevice(tb, s, "udp-bindrate", func(p *sim.Proc, n *testbed.Node) DeviceResult {
		port := uint16(udpProbeBasePort + 50)
		srv, err := tb.Server.UDP.BindIf(n.ServerIf, port)
		if err != nil {
			panic(fmt.Sprintf("probe: bindrate %s: %v", n.Tag, err))
		}
		defer srv.Close()

		start := p.Now()
		got := 0
		for p.Now()-start < duration {
			// Count what has landed so far (taking no simulated time),
			// so the server's queue stays short.
			got += srv.Drain()
			if tb.Client.UDP.SendOnce(n.ServerAddr, port, payload) != nil {
				break
			}
			// Pace lightly so the LAN link is not the artificial limit.
			p.Sleep(20 * time.Microsecond)
		}
		// Count the rest (each arrival passed the NAT's binding path).
		for {
			if _, ok := srv.TryRecv(); !ok {
				// Allow stragglers to drain once.
				if _, ok := srv.Recv(p, 50*time.Millisecond); !ok {
					break
				}
			}
			got++
		}
		elapsed := (p.Now() - start).Seconds()
		rate := float64(got) / elapsed
		return DeviceResult{Tag: n.Tag, Samples: []float64{rate}}
	})
}
