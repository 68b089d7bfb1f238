package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyScale keeps each round to a few hundred operations.
var tinyScale = scale{K: 60, Mutations: 3, WireOps: 120, Probes: 3, WarmPasses: 1}

// exactCounts are the per-layer counts that must repeat exactly between
// two runs of one seed.
var exactCounts = []string{"authz.fallbacks_per_apply", "wal.appends_per_op", "transport.frames_per_op"}

// runTiny runs one workload at tiny scale and returns its result line.
func runTiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	var out bytes.Buffer
	ok, err := run(&out, options{workload: workload, seed: 7, trace: trace, dir: t.TempDir()}, tinyScale)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%v: last line is not a result: %v\n%s", workload, trace, err, out.String())
	}
	if !ok || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
			workload, trace, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// benchmarkFile is the part of BENCHMARK.json the result must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestDeterminism runs every workload twice with one seed, untraced and
// traced, and checks that each prints every metric BENCHMARK.json names
// with its unit, that nothing failed, and that the layer counts repeat.
func TestDeterminism(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range bf.Workloads {
		if wl.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, wl.Name, workloads[i])
		}
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			a, b := runTiny(t, wl, trace), runTiny(t, wl, trace)
			if len(a.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", wl, trace, len(a.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := a.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", wl, trace, m.Name, got, ok, m.Unit)
				}
			}
			if !trace {
				continue
			}
			for _, name := range exactCounts {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %s = %v then %v; want an exact repeat", wl, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		}
	}
}

// TestFixtureFromSeed checks that the generated inputs, keys and
// signatures included, are a function of the seed alone.
func TestFixtureFromSeed(t *testing.T) {
	encode := func(seed int64) string {
		fx, err := newFixture(seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(fx.mutations)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(fx.wire, "\n") + string(b)
	}
	a, b, c := encode(3), encode(3), encode(4)
	if a != b {
		t.Error("two fixtures from seed 3 differ")
	}
	if a == c {
		t.Error("fixtures from seeds 3 and 4 are identical")
	}
}
