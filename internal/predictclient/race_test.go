//go:build race

package predictclient

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation ceilings do not hold.
const raceEnabled = true
