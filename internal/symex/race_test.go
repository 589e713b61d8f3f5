//go:build race

package symex

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a random share of the items put back, so pooled run
// scratch is reallocated and allocation counts stop measuring the code.
const raceEnabled = true
