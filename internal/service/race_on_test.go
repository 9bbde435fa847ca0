//go:build race

package service

// raceEnabled reports whether the race detector is on. Under race,
// sync.Pool deliberately drops items at random, so allocation ceilings over
// pooled scratch are not meaningful and are skipped.
const raceEnabled = true
