//go:build race

package main

// raceEnabled reports that the race detector is instrumenting this build;
// its shadow memory multiplies the heap, so heap-bound tests skip under it.
const raceEnabled = true
