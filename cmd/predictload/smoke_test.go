package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestPredictloadSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the in-process pipeline past the smoke budget")
	}
	if testing.Short() {
		t.Skip("starts predictd daemons")
	}
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke", "-seconds", "1", "-trace", "-workdir", t.TempDir()}, &out, &errs); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	printed := map[string]string{} // "<workload> <metric>" -> unit
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		if _, err := strconv.ParseFloat(f[2], 64); err == nil {
			printed[f[0]+" "+f[1]] = f[3]
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, predictload runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if unit, ok := printed[w.Name+" "+m.Name]; !ok {
				t.Errorf("%s %s not printed", w.Name, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s %s printed in %s, BENCHMARK.json says %s", w.Name, m.Name, unit, m.Unit)
			}
		}
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if want := []string{"attempted", "correct", "failed", "metrics"}; !sameSet(keys, want) {
		t.Errorf("JSON keys %v, want %v", keys, want)
	}
	if string(last["correct"]) != "true" {
		t.Errorf("run not correct: %s", out.String())
	}
}

func sameSet(a, b []string) bool {
	set := func(v []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range v {
			m[x] = true
		}
		return m
	}
	return reflect.DeepEqual(set(a), set(b))
}

func TestTraceFlagTakesZeroOrOne(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "recover", "--trace", "1", "--seed", "3", "-trace", "0", "-trace"})
	want := []string{"--workload", "recover", "-trace=true", "--seed", "3", "-trace=false", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestSelfTimeSubtractsOnlyNestedChildren(t *testing.T) {
	spans := []span{
		nested("root", 0, 1, 0, 0, 100),
		nested("a", 0, 2, 1, 10, 30),
		nested("b", 0, 3, 1, 25, 40),  // overlaps a: 10..40 covered once
		nested("c", 0, 4, 1, 90, 150), // only 90..100 lies inside root
		{Name: "async", ID: 5, Parent: 1, Start: 50, End: 60, Follows: true},
	}
	self := selfTimes(spans)
	if want := []int64{100 - 30 - 10, 20, 15, 60, 10}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}
