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
