//go:build race

package stack

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// quarter of its Puts at random, so the pooled packet path allocates
// more, and the AllocsPerRun pins use a looser bound.
const raceEnabled = true
