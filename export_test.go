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

// SetThroughputProbe replaces tcp2's per-device measurement with f
// until the returned restore func runs.
func SetThroughputProbe(f func(tag string) Throughput) (restore func()) {
	old := measureThroughput
	measureThroughput = func(tag string, _ Options, _ int64, _ func() bool) Throughput { return f(tag) }
	return func() { measureThroughput = old }
}
