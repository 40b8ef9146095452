//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation slows the
// traced passes far more than the untraced ones.
const raceEnabled = true
