// Command perfbench is the repository's benchmark: it drives the
// coalition authorization server from outside, through its public calls,
// on three workloads (wire_steady, churn_inproc, durable_churn) and
// prints one JSON result line. See README.md for why each workload
// exists and which layer metric should move which end-to-end metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload churn_inproc --seed 1 --seconds 5 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate
// traced run that prints the per-layer table and its metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// minRounds is the fewest rounds a run makes, however short --seconds
// is: setup_s is the median of the rounds' set-ups, and a traced run
// needs an untraced round to measure its own overhead against.
const minRounds = 3

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // where durable_churn writes its WAL
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: wire_steady, churn_inproc or durable_churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 5, "how long to measure (whole rounds; at least 3)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for durable_churn's write-ahead logs")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	ok, err := run(os.Stdout, o, fullScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run generates the inputs for o.seed, repeats rounds of the workload
// until o.seconds have passed (and at least minRounds), checks every
// output, and writes the run's description, the per-layer table of a
// traced run, and the result line to w. ok reports the result's
// correct field; an error means no result could be measured and none
// was written.
func run(w io.Writer, o options, sc scale) (ok bool, err error) {
	known := false
	for _, wl := range workloads {
		known = known || wl == o.workload
	}
	if !known {
		return false, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return false, err
	}
	nmut := sc.Mutations
	if sc.Probes > nmut {
		nmut = sc.Probes
	}
	fx, err := newFixture(o.seed, nmut)
	if err != nil {
		return false, fmt.Errorf("fixture: %w", err)
	}
	r := newRunner(o.workload, sc, fx, o.seed, o.dir)

	var rounds []roundStats
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start).Seconds() < o.seconds; n++ {
		rs, err := r.round(n, o.trace && n%2 == 1)
		if err != nil {
			return false, fmt.Errorf("round %d: %w", n, err)
		}
		rounds = append(rounds, rs)
	}

	wal := "none"
	if o.workload == durableChurn {
		wal = walWindow.String()
	}
	k := sc.K
	if o.workload == wireSteady {
		k = 0 // no mutations inside the window
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d K=%d objects=%d pool=%d mutations/round=%d wal_window=%s rounds=%d trace=%v\n",
		o.workload, o.seed, k, fixtureObjects, len(fx.pool), len(rounds[0].applies), wal, len(rounds), o.trace)

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valued{}}
	table, names := endToEnd, map[string]float64(nil)
	var traceErr error
	if o.trace {
		table = perLayer
		names, traceErr = layerMetrics(o.workload, rounds)
		if names != nil {
			printLayerTable(w, names)
		}
	} else {
		names = endToEndMetrics(rounds)
	}
	for _, m := range table {
		res.Metrics[m.name] = valued{Value: names[m.name], Unit: m.unit}
	}
	res.Correct = r.failed == 0 && traceErr == nil
	if r.firstErr != nil {
		fmt.Fprintf(w, "perfbench: %d of %d operations failed (%d wrong decisions); first: %v\n",
			r.failed, r.attempted, r.wrong, r.firstErr)
	}
	if traceErr != nil {
		fmt.Fprintln(w, "perfbench: trace does not reconcile:", traceErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct, nil
}
