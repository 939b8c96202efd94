//go:build !race

package predictclient

const raceEnabled = false
