// Package stack is the fixture stand-in for hgw/internal/stack:
// poollint recognizes Send and SendVia of a type Host in a package
// whose path ends in "stack".
package stack

import "netpkt"

type Host struct{}

type NetIf struct{}

func (h *Host) Pool() *netpkt.Pool { return &netpkt.Pool{} }

func (h *Host) Send(ip *netpkt.IPv4) bool { return true }

func (h *Host) SendVia(ifc *NetIf, ip *netpkt.IPv4) {}
