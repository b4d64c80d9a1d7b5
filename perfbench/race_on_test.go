//go:build race

package main

// raceEnabled reports a race-detector build, whose slowdown makes wall-time
// assertions meaningless.
const raceEnabled = true
