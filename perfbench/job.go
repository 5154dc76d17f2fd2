package main

// The jobs of the file workloads. Each job is what one CLI invocation
// does — tracesync's default streaming run for ring-clc, tracestat's
// summary and census for wide-stat — and runs in a child process of the
// benchmark, so its wall time, CPU time and peak RSS are its own.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tsync/internal/analysis"
	"tsync/internal/clc"
	"tsync/internal/core"
	"tsync/internal/interp"
	"tsync/internal/measure"
	"tsync/internal/stream"
	"tsync/internal/trace"
)

// Files of a file workload's work directory.
const (
	inputFile  = "input.etr"
	outputFile = "out.etr"
	spillDir   = "spill"
)

// sidecar is the offset-table file tracegen writes next to a trace and
// tracesync reads.
type sidecar struct {
	Init []measure.Offset `json:"init"`
	Fin  []measure.Offset `json:"fin"`
}

func sidecarPath(trace string) string { return trace + ".offsets.json" }

func loadSidecar(path string) (sidecar, error) {
	var side sidecar
	blob, err := os.ReadFile(sidecarPath(path))
	if err != nil {
		return side, err
	}
	if err := json.Unmarshal(blob, &side); err != nil {
		return side, fmt.Errorf("offset sidecar: %w", err)
	}
	return side, nil
}

// analysisResult is what a job reports for the correctness gate.
type analysisResult struct {
	Before, After analysis.Census
	CLC           clc.Report
	Distortion    analysis.Distortion
	// Census is wide-stat's raw census; Summary its event count.
	Census        analysis.Census
	SummaryEvents int
	// Checksum is the FNV-64a of the corrected trace bytes (ring-clc
	// references only; the benchmark hashes job outputs itself).
	Checksum string `json:",omitempty"`
}

// jobOut is a job child's report.
type jobOut struct {
	Events int64
	// Wall is the job's own duration inside the child.
	Wall   time.Duration
	Result analysisResult
	Stats  stream.Stats
	// Mallocs, NumGC and PauseTotal come from the child's MemStats after
	// the job; HeapSys is the heap memory it obtained from the OS.
	Mallocs    uint64
	NumGC      uint32
	PauseTotal time.Duration
	HeapSys    uint64
	Spans      []span           `json:",omitempty"`
	Counters   map[string]int64 `json:",omitempty"`
}

// runJob runs one job of workload w over dir's input. With a non-nil
// tracer every injection point is wrapped and each call into the
// program is a span; with nil nothing is wrapped.
func runJob(ctx context.Context, w *workload, dir string, t *tracer) (_ *jobOut, err error) {
	start := time.Now()
	root := t.begin("job")
	out := &jobOut{}
	in := filepath.Join(dir, inputFile)
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ra io.ReaderAt = f
	if t != nil {
		ra = tracedReaderAt{r: f, t: t}
	}
	sp := t.begin("stream.NewSource")
	src, err := stream.NewSourceOpts(ra, stream.SourceOptions{})
	t.end(sp)
	if err != nil {
		return nil, err
	}
	out.Events = src.Events()

	switch w.kind {
	case kindSync:
		if err := syncJob(ctx, src, in, filepath.Join(dir, outputFile), filepath.Join(dir, spillDir), t, out); err != nil {
			return nil, err
		}
	case kindStat:
		sp := t.begin("stream.Summarize")
		sum, _, err := stream.SummarizeContext(ctx, src)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("stream.Census")
		census, stats, err := stream.CensusContext(ctx, src, stream.Options{Policy: stream.PolicySpill})
		t.end(sp)
		if err != nil {
			return nil, err
		}
		out.Result.Census, out.Result.SummaryEvents, out.Stats = census, sum.Events, stats
	default:
		return nil, fmt.Errorf("workload %s has no file job", w.name)
	}
	t.end(root)
	out.Wall = time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.Mallocs, out.NumGC, out.PauseTotal, out.HeapSys = ms.Mallocs, ms.NumGC, time.Duration(ms.PauseTotalNs), ms.HeapSys
	if t != nil {
		out.Spans, out.Counters = t.snapshot()
	}
	return out, nil
}

// syncJob is tracesync's default run: interp base correction, then CLC,
// streaming, with the corrected trace written to outPath.
func syncJob(ctx context.Context, src *stream.Source, in, outPath, spill string, t *tracer, out *jobOut) (err error) {
	side, err := loadSidecar(in)
	if err != nil {
		return err
	}
	opts := stream.Options{Policy: stream.PolicySpill}
	if t != nil {
		if err := os.MkdirAll(spill, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(spill)
		opts.SpillFS = spillFS{dir: spill, t: t}
	}
	of, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := of.Close(); err == nil {
			err = cerr
		}
	}()
	var w io.Writer = of
	if t != nil {
		w = tracedWriter{w: of, t: t}
	}
	sp := t.begin("stream.Pipeline.Run")
	res, err := stream.Pipeline{Base: core.BaseInterp, CLC: true, Options: opts}.RunContext(ctx, src, w, side.Init, side.Fin)
	t.end(sp)
	if err != nil {
		return err
	}
	out.Result = analysisResult{Before: res.Before, After: res.After, CLC: res.CLCReport, Distortion: res.Distortion}
	out.Stats = res.Stats
	return nil
}

// runRef computes the correctness reference of a file workload outside
// every timed region: the in-memory core.Pipeline for ring-clc, the
// single-shard (flat merge) census for wide-stat.
func runRef(ctx context.Context, w *workload, dir string) (*analysisResult, error) {
	in := filepath.Join(dir, inputFile)
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch w.kind {
	case kindSync:
		side, err := loadSidecar(in)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Read(f)
		if err != nil {
			return nil, err
		}
		mem, err := core.Pipeline{Base: core.BaseInterp, CLC: true}.Run(tr, side.Init, side.Fin)
		if err != nil {
			return nil, err
		}
		h := newHash()
		if _, err := trace.Write(h, mem.Trace); err != nil {
			return nil, err
		}
		return &analysisResult{Before: mem.Before, After: mem.After, CLC: mem.CLCReport, Distortion: mem.Distortion, Checksum: h.sum()}, nil
	case kindStat:
		src, err := stream.NewSource(f)
		if err != nil {
			return nil, err
		}
		census, _, err := stream.CensusContext(ctx, src, stream.Options{Policy: stream.PolicySpill, Shards: 1})
		if err != nil {
			return nil, err
		}
		return &analysisResult{Census: census, SummaryEvents: int(src.Events())}, nil
	}
	return nil, fmt.Errorf("workload %s has no reference", w.name)
}

// checkJob compares a job's report and output against the reference.
func checkJob(w *workload, dir string, got *jobOut, ref *analysisResult) error {
	if got.Events != w.events() {
		return fmt.Errorf("job saw %d events, the input holds %d", got.Events, w.events())
	}
	switch w.kind {
	case kindSync:
		sum, err := hashFile(filepath.Join(dir, outputFile))
		if err != nil {
			return err
		}
		if sum != ref.Checksum {
			return fmt.Errorf("corrected trace checksum %s, in-memory pipeline %s", sum, ref.Checksum)
		}
		r := got.Result
		if r.Before != ref.Before || r.After != ref.After || r.CLC != ref.CLC || r.Distortion != ref.Distortion {
			return fmt.Errorf("streaming result %+v differs from in-memory %+v", r, *ref)
		}
	case kindStat:
		if got.Result.Census != ref.Census {
			return fmt.Errorf("census %+v differs from the single-shard census %+v", got.Result.Census, ref.Census)
		}
		if int64(got.Result.SummaryEvents) != got.Events {
			return fmt.Errorf("summary counted %d events of %d", got.Result.SummaryEvents, got.Events)
		}
	}
	return nil
}

// probeOut holds the timings of a traced run's probes.
type probeOut struct {
	// Decode and Index map an encoding name to ns per event.
	Decode, Index map[string]float64
	// Summary and Census time the stream calls on the workload's input.
	SummaryNS, CensusNS float64
	// EncodeNS and MapNS time trace encoding and the interp mapping
	// alone, per event.
	EncodeNS, MapNS float64
	// RunNoCLC, RunCLC and RunOut time Pipeline.Run without CLC and
	// without output, with CLC and without output, and with both
	// (not on wide-stat, whose job runs no pipeline).
	RunNoCLC, RunCLC, RunOut time.Duration
}

// probeRuns is how many times the probe runs each pipeline variant.
const probeRuns = 3

// runProbe times the layer probes over dir's input and its other
// encodings, all untraced: every figure is one call's wall time except
// the pipeline variants', which are medians.
func runProbe(ctx context.Context, w *workload, dir string) (*probeOut, error) {
	p := &probeOut{Decode: map[string]float64{}, Index: map[string]float64{}}
	for _, enc := range encodings {
		path := filepath.Join(dir, enc.file())
		n, d, err := timeDecode(path)
		if err != nil {
			return nil, err
		}
		p.Decode[enc.name] = perEvent(d, n)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		src, err := stream.NewSource(f)
		d = time.Since(start)
		f.Close()
		if err != nil {
			return nil, err
		}
		p.Index[enc.name] = perEvent(d, src.Events())
	}

	in := filepath.Join(dir, inputFile)
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := stream.NewSource(f)
	if err != nil {
		return nil, err
	}
	n := src.Events()
	start := time.Now()
	if _, _, err := stream.SummarizeContext(ctx, src); err != nil {
		return nil, err
	}
	p.SummaryNS = perEvent(time.Since(start), n)
	start = time.Now()
	if _, _, err := stream.CensusContext(ctx, src, stream.Options{Policy: stream.PolicySpill}); err != nil {
		return nil, err
	}
	p.CensusNS = perEvent(time.Since(start), n)
	if p.EncodeNS, p.MapNS, err = timeEncodeMap(in); err != nil {
		return nil, err
	}

	if w.kind == kindStat {
		return p, nil
	}
	side, err := loadSidecar(in)
	if err != nil {
		return nil, err
	}
	run := func(withCLC bool, out string) (d time.Duration, err error) {
		var wr io.Writer
		if out != "" {
			of, err := os.Create(out)
			if err != nil {
				return 0, err
			}
			defer func() {
				if cerr := of.Close(); err == nil {
					err = cerr
				}
			}()
			wr = of
		}
		start := time.Now()
		_, err = stream.Pipeline{Base: core.BaseInterp, CLC: withCLC, Options: stream.Options{Policy: stream.PolicySpill}}.RunContext(ctx, src, wr, side.Init, side.Fin)
		return time.Since(start), err
	}
	// The three variants take turns, and each reports its median over
	// probeRuns calls, so the differences between them do not rest on
	// single calls.
	var noCLC, withCLC, withOut []float64
	for i := 0; i < probeRuns; i++ {
		for _, v := range []struct {
			clc  bool
			out  string
			into *[]float64
		}{{false, "", &noCLC}, {true, "", &withCLC}, {true, filepath.Join(dir, outputFile), &withOut}} {
			d, err := run(v.clc, v.out)
			if err != nil {
				return nil, err
			}
			*v.into = append(*v.into, float64(d))
		}
	}
	p.RunNoCLC, p.RunCLC, p.RunOut = time.Duration(median(noCLC)), time.Duration(median(withCLC)), time.Duration(median(withOut))
	return p, nil
}

func perEvent(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// timeDecode decodes every event of the file at path with the plain
// trace.EventReader.
func timeDecode(path string) (int64, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	start := time.Now()
	er, err := trace.NewEventReader(f)
	if err != nil {
		return 0, 0, err
	}
	var n int64
	var ev trace.Event
	for {
		if _, err := er.NextProc(); err == io.EOF {
			break
		} else if err != nil {
			return 0, 0, err
		}
		for {
			err := er.Read(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			n++
		}
	}
	return n, time.Since(start), nil
}

// mapSink keeps the mapped timestamps alive, so the compiler cannot
// drop the mapping the probe times.
var mapSink float64

// timeEncodeMap decodes the file rank by rank and times, per event, the
// interp mapping of every timestamp and the re-encoding of the rank's
// events with the pipeline's output codec, excluding the decode.
func timeEncodeMap(path string) (encNS, mapNS float64, err error) {
	side, err := loadSidecar(path)
	if err != nil {
		return 0, 0, err
	}
	corr, err := interp.Linear(side.Init, side.Fin)
	if err != nil {
		return 0, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	er, err := trace.NewEventReader(f)
	if err != nil {
		return 0, 0, err
	}
	ew, err := trace.NewEventWriter(io.Discard, er.Header())
	if err != nil {
		return 0, 0, err
	}
	cur := corr.NewCursor()
	var enc, mapped time.Duration
	var n int64
	var evs []trace.Event
	var sum float64
	for {
		ph, err := er.NextProc()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		evs = evs[:0]
		for {
			var ev trace.Event
			if err := er.Read(&ev); err == io.EOF {
				break
			} else if err != nil {
				return 0, 0, err
			}
			evs = append(evs, ev)
		}
		start := time.Now()
		for i := range evs {
			sum += cur.Map(ph.Rank, evs[i].Time)
		}
		mapped += time.Since(start)
		start = time.Now()
		if err := ew.BeginProc(ph); err != nil {
			return 0, 0, err
		}
		for i := range evs {
			if err := ew.Write(&evs[i]); err != nil {
				return 0, 0, err
			}
		}
		enc += time.Since(start)
		n += int64(len(evs))
	}
	start := time.Now()
	if err := ew.Close(); err != nil {
		return 0, 0, err
	}
	enc += time.Since(start)
	mapSink = sum
	return perEvent(enc, n), perEvent(mapped, n), nil
}
