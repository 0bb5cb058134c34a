//go:build race

package cluster

// raceEnabled reports that the race detector is instrumenting this build;
// its shadow memory multiplies the heap, so the large handoff test, which
// holds 1,200 full streams on each side, is skipped under -race.
const raceEnabled = true
