//go:build race

package fleet_test

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random, so the codec's allocation guards do not hold.
const raceEnabled = true
