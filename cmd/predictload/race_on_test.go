//go:build race

package main

// raceEnabled reports that the race detector is instrumenting this build;
// it slows the generator and the in-process pipeline past the smoke test's
// budget, so that test is skipped under -race.
const raceEnabled = true
