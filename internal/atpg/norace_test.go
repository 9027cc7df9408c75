//go:build !race

package atpg

// raceEnabled reports a build with the race detector.
const raceEnabled = false
