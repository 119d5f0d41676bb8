//go:build race

package autofj

// raceEnabled reports that the race detector is on: sync.Pool then drops
// pooled items at random, so allocation counts over pooled scratch mean
// nothing.
const raceEnabled = true
