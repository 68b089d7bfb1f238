package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"jointadmin/internal/authz"
	"jointadmin/internal/daemon"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
	"jointadmin/internal/wal"
)

// metric is one reported number's name and unit, as BENCHMARK.json
// lists them.
type metric struct {
	name, unit string
	// moves names the end-to-end metric and workload a layer metric
	// should move (per-layer metrics only; printed in the trace table).
	moves string
}

var endToEnd = []metric{
	{name: "latency_p50_us", unit: "us"},
	{name: "latency_p90_us", unit: "us"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "apply_p50_ms", unit: "ms"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "peak_rss_mb", unit: "MiB"},
	{name: "setup_s", unit: "s"},
}

const (
	movesWire    = "latency_p50_us, cpu_us_per_op on wire_steady"
	movesChurn   = "latency_p90_us, cpu_us_per_op on churn_inproc"
	movesApply   = "apply_p50_ms on churn_inproc, durable_churn"
	movesDurable = "latency_p50_us, cpu_us_per_op on durable_churn"
)

var perLayer = []metric{
	{"transport.bytes_per_op", "B/op", movesWire},
	{"transport.frames_per_op", "frames/op", movesWire},
	{"daemon.wire_overhead_us", "us", movesWire},
	{"daemon.request_decode_us", "us", movesWire},
	{"daemon.handler_us", "us", movesWire},
	{"daemon.retries_per_kop", "retries/kop", "stays 0; wasted work on wire_steady"},
	{"authz.authorize_us", "us", movesChurn},
	{"authz.residual_us", "us", movesChurn},
	{"authz.fallback_us", "us", movesChurn},
	{"authz.residual_hit_ratio", "ratio", movesChurn},
	{"authz.fallbacks_per_apply", "count", movesChurn},
	{"authz.cert_cache_miss_ratio", "ratio", movesChurn},
	{"logic.proof_render_us", "us", movesChurn},
	{"authz.apply_ms", "ms", movesApply},
	{"authz.recompile_ms", "ms", movesApply},
	{"wal.appends_per_op", "appends/op", movesDurable},
	{"wal.bytes_per_op", "B/op", movesDurable},
	{"wal.fsync_p50_ms", "ms", movesDurable + ", apply_p50_ms"},
	{"runtime.allocs_per_op", "allocs/op", "cpu_us_per_op on all three"},
	{"runtime.gc_cpu_fraction", "ratio", "cpu_us_per_op on all three"},
	{"trace.unattributed_us", "us", "end-to-end mean minus the layer means"},
	{"trace.overhead_pct", "%", "traced vs untraced decision latency"},
}

// reconcileTolerance is the share of the end-to-end mean that the layer
// means may leave unattributed before a traced run fails.
const reconcileTolerance = 0.10

// quantile is the q-quantile of v by linear interpolation between order
// statistics. It sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics summarizes untraced rounds. Rates and the tail are
// taken per round and reported as the median over rounds, so a burst of
// outside load during one round does not move the run's figure; the
// median latency and Apply time are exact over every sample.
func endToEndMetrics(rounds []roundStats) map[string]float64 {
	var lat, applies, setups, p90s, rates, cpus []float64
	for _, rs := range rounds {
		roundLat := make([]float64, len(rs.lat))
		for i, d := range rs.lat {
			roundLat[i] = us(d)
		}
		lat = append(lat, roundLat...)
		p90s = append(p90s, quantile(roundLat, 0.90))
		for _, d := range rs.applies {
			applies = append(applies, ms(d))
		}
		setups = append(setups, rs.setup.Seconds())
		rates = append(rates, ratio(float64(len(rs.lat)), rs.window.Seconds()))
		cpus = append(cpus, ratio(us(rs.cpu), float64(len(rs.lat))))
	}
	return map[string]float64{
		"latency_p50_us": quantile(lat, 0.50),
		"latency_p90_us": quantile(p90s, 0.50),
		"ops_per_s":      quantile(rates, 0.50),
		"apply_p50_ms":   quantile(applies, 0.50),
		"cpu_us_per_op":  quantile(cpus, 0.50),
		"peak_rss_mb":    peakRSSMB(),
		"setup_s":        quantile(setups, 0.50),
	}
}

// readCounters reads the program's obs counters and the Go runtime's.
func readCounters(reg *obs.Registry, log *wal.Log) counters {
	snap := reg.Snapshot()
	c := counters{
		bytesOut:    snap.CounterValue(transport.MetricBytes + `{dir="out"}`),
		framesOut:   snap.CounterValue(transport.MetricFrames + `{dir="out"}`),
		resends:     snap.CounterValue(daemon.MetricMuxResends),
		stale:       snap.CounterValue(daemon.MetricMuxStale),
		replays:     snap.CounterValue(daemon.MetricDedupReplays),
		cacheHits:   sumCounters(snap, authz.MetricCacheHits),
		cacheMisses: sumCounters(snap, authz.MetricCacheMisses),
		fallbacks:   snap.CounterValue(authz.MetricResidualFallbacks),
		walAppends:  sumCounters(snap, wal.MetricAppends),
	}
	c.fsync, _ = snap.HistogramValueOf(wal.MetricFsyncSeconds)
	if log != nil {
		c.walBytes = log.LogBytes()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs = m.Mallocs
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	c.gcCPU, c.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	return c
}

// sumCounters adds every labeled series of one counter.
func sumCounters(snap obs.Snapshot, name string) int64 {
	var n int64
	for _, c := range snap.Counters {
		if c.Name == name || strings.HasPrefix(c.Name, name+"{") {
			n += c.Value
		}
	}
	return n
}

// fsyncDelta is the wal_fsync_seconds histogram of one window.
func fsyncDelta(a, b obs.HistogramValue) obs.HistogramValue {
	if len(a.Counts) != len(b.Counts) {
		return b // the series appeared during the window
	}
	d := obs.HistogramValue{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts)),
		Sum: b.Sum - a.Sum, Count: b.Count - a.Count}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// layerMetrics summarizes a traced run: layer means from its traced
// rounds, trace overhead against its untraced rounds. It returns the
// metrics and the reconciliation error, if any.
func layerMetrics(workload string, rounds []roundStats) (map[string]float64, error) {
	var sp [nSpans]span
	var decisions int64
	var window, tracedLat, plainLat time.Duration
	var plainN int64
	var d counters // window deltas, summed over traced rounds
	var fsync obs.HistogramValue
	for _, rs := range rounds {
		if rs.layers == nil {
			for _, l := range rs.lat {
				plainLat += l
			}
			plainN += int64(len(rs.lat))
			continue
		}
		for i := range sp {
			sp[i].n += rs.layers.spans[i].n
			sp[i].total += rs.layers.spans[i].total
		}
		decisions += int64(len(rs.lat))
		window += rs.window
		for _, l := range rs.lat {
			tracedLat += l
		}
		a, b := rs.layers.start, rs.layers.end
		d.bytesOut += b.bytesOut - a.bytesOut
		d.framesOut += b.framesOut - a.framesOut
		d.resends += b.resends - a.resends
		d.stale += b.stale - a.stale
		d.replays += b.replays - a.replays
		d.cacheHits += b.cacheHits - a.cacheHits
		d.cacheMisses += b.cacheMisses - a.cacheMisses
		d.fallbacks += b.fallbacks - a.fallbacks
		d.walAppends += b.walAppends - a.walAppends
		d.walBytes += b.walBytes - a.walBytes
		d.mallocs += b.mallocs - a.mallocs
		d.gcCPU += b.gcCPU - a.gcCPU
		d.totalCPU += b.totalCPU - a.totalCPU
		w := fsyncDelta(a.fsync, b.fsync)
		if fsync.Counts == nil {
			fsync = w
		} else if merged, err := fsync.Merge(w); err == nil {
			fsync = merged
		}
	}
	if decisions == 0 {
		return nil, fmt.Errorf("no traced decisions")
	}
	ops := float64(decisions)
	decided := sp[spanResidual].n + sp[spanFallback].n
	authorizeUs := ratio(us(sp[spanResidual].total+sp[spanFallback].total), float64(decided))
	callUs := us(tracedLat) / ops

	// The end-to-end mean is the window per decision: what throughput
	// sees. The layers account for it with their spans inside the window.
	attributed := sp[spanRender].total
	applies := 0.0 // mutations inside the window
	m := map[string]float64{}
	if workload == wireSteady {
		attributed += tracedLat
		m["daemon.wire_overhead_us"] = callUs - sp[spanHandler].meanUs()
		m["daemon.request_decode_us"] = sp[spanDecode].meanUs()
		m["daemon.handler_us"] = sp[spanHandler].meanUs()
	} else {
		attributed += sp[spanResidual].total + sp[spanFallback].total + sp[spanApply].total + sp[spanRecompile].total
		m["daemon.wire_overhead_us"] = 0
		m["daemon.request_decode_us"] = 0
		m["daemon.handler_us"] = 0
		applies = float64(sp[spanApply].n)
	}
	periodUs := us(window) / ops
	unattributed := periodUs - us(attributed)/ops

	m["transport.bytes_per_op"] = float64(d.bytesOut) / ops
	m["transport.frames_per_op"] = float64(d.framesOut) / ops
	m["daemon.retries_per_kop"] = float64(d.resends+d.stale+d.replays) * 1000 / ops
	m["authz.authorize_us"] = authorizeUs
	m["authz.residual_us"] = sp[spanResidual].meanUs()
	m["authz.fallback_us"] = sp[spanFallback].meanUs()
	m["authz.residual_hit_ratio"] = ratio(float64(sp[spanResidual].n), float64(decided))
	m["authz.fallbacks_per_apply"] = ratio(float64(d.fallbacks), applies)
	m["authz.cert_cache_miss_ratio"] = ratio(float64(d.cacheMisses), float64(d.cacheHits+d.cacheMisses))
	m["logic.proof_render_us"] = sp[spanRender].meanUs()
	m["authz.apply_ms"] = sp[spanApply].meanUs() / 1e3
	m["authz.recompile_ms"] = sp[spanRecompile].meanUs() / 1e3
	m["wal.appends_per_op"] = float64(d.walAppends) / ops
	m["wal.bytes_per_op"] = float64(d.walBytes) / ops
	m["wal.fsync_p50_ms"] = fsync.Quantile(0.5) * 1e3
	m["runtime.allocs_per_op"] = float64(d.mallocs) / ops
	m["runtime.gc_cpu_fraction"] = ratio(d.gcCPU, d.totalCPU)
	m["trace.unattributed_us"] = unattributed
	m["trace.overhead_pct"] = 0
	if plainN > 0 {
		m["trace.overhead_pct"] = (callUs/(us(plainLat)/float64(plainN)) - 1) * 100
	}
	if math.Abs(unattributed) > reconcileTolerance*periodUs {
		return m, fmt.Errorf("layer means leave %.2f µs of the %.2f µs end-to-end mean unattributed (tolerance %.0f%%)",
			unattributed, periodUs, reconcileTolerance*100)
	}
	return m, nil
}

// printLayerTable writes the per-layer table of a traced run.
func printLayerTable(w io.Writer, m map[string]float64) {
	fmt.Fprintf(w, "%-30s %14s %-12s %s\n", "layer metric", "value", "unit", "moves")
	for _, lm := range perLayer {
		fmt.Fprintf(w, "%-30s %14.4f %-12s %s\n", lm.name, m[lm.name], lm.unit, lm.moves)
	}
}
