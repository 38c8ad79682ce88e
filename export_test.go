package hgw

// Unregister removes a test experiment from the registry.
func Unregister(id string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(regByID, id)
	for i, cand := range regOrder {
		if cand == id {
			regOrder = append(regOrder[:i], regOrder[i+1:]...)
			break
		}
	}
}

// SetThroughputProbe replaces each of tcp2's per-testbed runs with f,
// called with the testbed's device tag, until the returned restore func
// runs.
func SetThroughputProbe(f func(tag string)) (restore func()) {
	old := throughputRun
	throughputRun = func(_ int, tb *Testbed, _ *Sim, _ Options, _ *Throughput) error {
		f(tb.Nodes[0].Tag)
		return nil
	}
	return func() { throughputRun = old }
}
