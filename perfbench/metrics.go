package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef names a reported metric, its unit and which way is better.
// The two tables below are the benchmark's contract; BENCHMARK.json at
// the repository root lists the same names and units (the tests check).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of tsync sees. Every workload reports
// all of them: a file workload's "session" is one job, i.e. one
// tracesync or tracestat invocation.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"cpu_ns_per_event", "ns", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"sessions_per_s", "1/s", "higher"},
	{"session_p50_s", "s", "lower"},
	{"session_p95_s", "s", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"stream.decode_passes", "count", "lower"},
	{"stream.read.wait_s", "s", "lower"},
	{"stream.index.ns_per_event", "ns", "lower"},
	{"stream.index.v1.ns_per_event", "ns", "lower"},
	{"stream.index.v2row.ns_per_event", "ns", "lower"},
	{"stream.index.v2col.ns_per_event", "ns", "lower"},
	{"trace.decode.v1.ns_per_event", "ns", "lower"},
	{"trace.decode.v2row.ns_per_event", "ns", "lower"},
	{"trace.decode.v2col.ns_per_event", "ns", "lower"},
	{"stream.clc.self_s", "s", "lower"},
	{"stream.spill.bytes_written", "bytes", "lower"},
	{"stream.spill.bytes_read", "bytes", "lower"},
	{"stream.spill.files", "count", "lower"},
	{"stream.spill.wait_s", "s", "lower"},
	{"stream.max_pending", "count", "lower"},
	{"stream.spilled_events", "count", "lower"},
	{"stream.merge.self_ns_per_event", "ns", "lower"},
	{"stream.summary.ns_per_event", "ns", "lower"},
	{"stream.assemble.self_s", "s", "lower"},
	{"trace.encode.ns_per_event", "ns", "lower"},
	{"stream.out.bytes", "bytes", "lower"},
	{"stream.out.wait_s", "s", "lower"},
	{"interp.map.ns_per_event", "ns", "lower"},
	{"tsyncd.admit_s.p50", "s", "lower"},
	{"tsyncd.admit_s.p95", "s", "lower"},
	{"tsyncd.upload_s.p50", "s", "lower"},
	{"tsyncd.upload_s.p95", "s", "lower"},
	{"tsyncd.run_s.p50", "s", "lower"},
	{"tsyncd.run_s.p95", "s", "lower"},
	{"tsyncd.reply_s.p50", "s", "lower"},
	{"tsyncd.reply_s.p95", "s", "lower"},
	{"tsyncd.attempts_per_session", "count", "lower"},
	{"tsyncd.rejects", "count", "lower"},
	{"tsyncd.bytes_in_per_session", "bytes", "lower"},
	{"tsyncd.bytes_out_per_session", "bytes", "lower"},
	{"runtime.allocs_per_event", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"runtime.peak_heap_mib", "MiB", "lower"},
	{"runtime.parallelism", "ratio", "higher"},
	{"runtime.gomaxprocs1.events_per_s", "1/s", "higher"},
	{"self.job_s", "s", "lower"},
	{"self.stream.index_s", "s", "lower"},
	{"self.stream.run_s", "s", "lower"},
	{"self.stream.summary_s", "s", "lower"},
	{"self.stream.census_s", "s", "lower"},
	{"trace.self_sum_s", "s", "lower"},
	{"trace.traced_wall_s", "s", "lower"},
	{"trace.untraced_wall_s", "s", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.events_per_s", "1/s", "higher"},
	{"trace.untraced_events_per_s", "1/s", "higher"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects one run's values by name.
type metrics map[string]float64

// render checks vals against the table for the run's mode — unknown
// names are a bug — and fills the layers the workload does not exercise
// with 0.
func render(vals metrics, traced bool) (map[string]metric, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for name, v := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not in the benchmark's table", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", name, v)
		}
	}
	return out, nil
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; it leaves xs unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fnvHash is the FNV-64a digest the repository's checksums use,
// rendered %016x.
type fnvHash struct{ hash.Hash64 }

func newHash() fnvHash { return fnvHash{fnv.New64a()} }

func (h fnvHash) sum() string { return fmt.Sprintf("%016x", h.Sum64()) }

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := newHash()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return h.sum(), nil
}
