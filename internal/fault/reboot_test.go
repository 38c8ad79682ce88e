package fault

import (
	"net/netip"
	"testing"
	"time"

	"hgw/internal/obs"
	"hgw/internal/sim"
	"hgw/internal/testbed"
)

// TestRebootWipesBindingsAndReleases reproduces the paper's §4.4
// observation end to end: a gateway reboot loses every NAT binding —
// established flows stop relaying inbound traffic even though the
// client's endpoints are unchanged — and the gateway re-acquires its
// WAN lease over DHCP (the same address: the server's leases are
// MAC-keyed).
func TestRebootWipesBindingsAndReleases(t *testing.T) {
	reg := obs.NewRegistry()
	tb, s := testbed.Run(testbed.Config{Tags: []string{"je"}, Obs: reg})
	n := tb.Nodes[0]
	srv, err := tb.Server.UDP.BindIf(n.ServerIf, 7000)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := tb.Client.UDP.Dial(n.ServerAddr, 7000)
	if err != nil {
		t.Fatal(err)
	}

	wanBefore := n.Dev.WANAddr()
	var from netip.Addr
	var fport uint16
	var inboundBefore, inboundAfter bool
	done := s.Spawn("reboot-test", func(p *sim.Proc) {
		// Establish a binding and prove it relays inbound.
		cli.Send([]byte("create"))
		d, ok := srv.Recv(p, 5*time.Second)
		if !ok {
			t.Error("binding never came up")
			return
		}
		from, fport = d.From, d.FromPort
		srv.SendTo(from, fport, []byte("before"))
		_, inboundBefore = cli.Recv(p, 5*time.Second)
		bindings := func() int64 { return reg.Snapshot().Gauges[obs.GNATBindings].Value }
		if bindings() == 0 {
			t.Error("no binding before reboot")
		}

		n.Dev.Reboot(10 * time.Second)
		if got := bindings(); got != 0 {
			t.Errorf("%d bindings survived the reboot, want 0", got)
		}
		if n.Dev.WANAddr().IsValid() {
			t.Error("WAN address still configured during the reboot outage")
		}

		// Let the DHCP re-lease complete, then probe the old mapping.
		p.Sleep(40 * time.Second)
		srv.SendTo(from, fport, []byte("after"))
		_, inboundAfter = cli.Recv(p, 5*time.Second)
	})
	s.Run(0)
	if !done.Exited() {
		t.Fatal("test process stalled")
	}
	if !inboundBefore {
		t.Fatal("inbound did not relay before the reboot")
	}
	if inboundAfter {
		t.Fatal("inbound relayed through a binding the reboot should have wiped")
	}
	if got := n.Dev.WANAddr(); got != wanBefore {
		t.Fatalf("re-leased WAN address %v, want the MAC-keyed %v", got, wanBefore)
	}
	if c := n.Dev.Engine.DropCounts()["binding-lost-reboot"]; c < 1 {
		t.Fatalf("binding-lost-reboot drops = %d, want >= 1", c)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.CNATBindingsWiped] == 0 {
		t.Fatal("nat_bindings_wiped counter never incremented")
	}
}
