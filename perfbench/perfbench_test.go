package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tsync/internal/stream"
	"tsync/internal/tsyncd"
)

// small shrinks a file workload to test size; wide-stat keeps enough
// ranks for the automatic merge tree.
func small(t *testing.T, name string) *workload {
	t.Helper()
	base, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w := *base
	switch w.kind {
	case kindSync:
		w.spec.Ranks, w.spec.Steps = 8, 400
	case kindStat:
		w.spec.Ranks, w.spec.Steps = 256, 20
	case kindService:
		w.spec.Ranks, w.spec.Steps = 4, 200
	}
	w.spec = w.synthSpec(7)
	return &w
}

// TestInstrumentPurity runs each file job with every wrapper off and
// every wrapper on: the outputs, results and statistics must be
// identical, and both must pass the benchmark's correctness gate.
func TestInstrumentPurity(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"ring-clc", "wide-stat"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			dir := t.TempDir()
			in := filepath.Join(dir, inputFile)
			if err := writeSynth(in, w.spec); err != nil {
				t.Fatal(err)
			}
			ref, err := runRef(ctx, w, dir)
			if err != nil {
				t.Fatal(err)
			}
			var outs [2]*jobOut
			var sums [2]string
			for i, traced := range []bool{false, true} {
				var tr *tracer
				if traced {
					tr = newTracer(0)
				}
				out, err := runJob(ctx, w, dir, tr)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if err := checkJob(w, dir, out, ref); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if w.kind == kindSync {
					if sums[i], err = hashFile(filepath.Join(dir, outputFile)); err != nil {
						t.Fatal(err)
					}
				}
				outs[i] = out
			}
			if outs[0].Result != outs[1].Result || sums[0] != sums[1] {
				t.Errorf("wrappers changed the result: %+v %s vs %+v %s", outs[0].Result, sums[0], outs[1].Result, sums[1])
			}
			if outs[0].Stats.MaxPending != outs[1].Stats.MaxPending || outs[0].Stats.SpilledEvents != outs[1].Stats.SpilledEvents {
				t.Errorf("wrappers changed the stats: %+v vs %+v", outs[0].Stats, outs[1].Stats)
			}
			if outs[0].Spans != nil || outs[1].Spans == nil {
				t.Errorf("spans: untraced %d, traced %d", len(outs[0].Spans), len(outs[1].Spans))
			}
			fi, err := os.Stat(in)
			if err != nil {
				t.Fatal(err)
			}
			passes := float64(outs[1].Counters["read.bytes"]) / float64(fi.Size())
			want := map[kind]float64{kindSync: 4, kindStat: 3}[w.kind]
			if math.Round(passes) != want || passes > want {
				t.Errorf("decode passes %.4f, want %v (index + every walk over the events)", passes, want)
			}
		})
	}
}

// TestServicePurity runs the six svc-mix session kinds against an
// in-process server with the listener and dial wrappers off and on;
// every session verifies against the direct stream.Pipeline.Run.
func TestServicePurity(t *testing.T) {
	w := small(t, "svc-mix")
	in, err := makeSvcInputs(w.spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.references(); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var tr *tracer
		var l net.Listener = ln
		if traced {
			tr = newTracer(0)
			l = &tracedListener{Listener: ln, t: tr}
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- tsyncd.New(tsyncd.Config{}).Serve(ctx, l) }()
		for k := int64(0); k < 6; k++ {
			rec, err := session(context.Background(), ln.Addr().String(), in, 1, k, tr)
			if err != nil {
				t.Errorf("traced=%v session %d: %v", traced, k, err)
				continue
			}
			if traced && (rec.attempts != 1 || rec.phases[0] <= 0 || rec.phases[2] <= 0 || (rec.want && rec.phases[3] <= 0)) {
				t.Errorf("session %d: phases not measured: %+v", k, rec)
			}
		}
		cancel()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		if traced {
			_, c := tr.snapshot()
			if c["server.conns"] != 6 || c["server.bytes_in"] < 2*int64(len(in.traces[0])+len(in.traces[1])+len(in.traces[2])) {
				t.Errorf("listener counters %v", c)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "stream.NewSource", Start: 10, End: 40, Parent: 0},
		{Name: "read.ReadAt", Start: 12, End: 20, Parent: 1},
		{Name: "read.ReadAt", Start: 15, End: 25, Parent: 1}, // concurrent with the one above
		{Name: "stream.Census", Start: 50, End: 90, Parent: 0},
		{Name: "read.ReadAt", Start: 60, End: 70, Parent: 4},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"job": 30, "stream.NewSource": 17, "read": 23, "stream.Census": 30}
	var sum time.Duration
	for k, v := range got {
		sum += v
		if want[k] != v {
			t.Errorf("%s: self %d, want %d", k, v, want[k])
		}
	}
	if sum != 100 {
		t.Errorf("self times add up to %d, want the root's 100", sum)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.95); math.Abs(q-4.8) > 1e-12 {
		t.Errorf("p95 %v", q)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestPhaseScan feeds the inbound frame parser a stream split at every
// byte boundary.
func TestPhaseScan(t *testing.T) {
	frame := func(typ byte, n int) []byte {
		b := make([]byte, frameHeader+n)
		b[0], b[1] = typ, byte(n)
		return b
	}
	var stream []byte
	for _, f := range [][]byte{frame(frameAccept, 3), frame(frameResult, 7), frame(frameResult, 0), frame(frameDone, 9)} {
		stream = append(stream, f...)
	}
	c := &phaseConn{eof: 1}
	for i, b := range stream {
		c.scan([]byte{b}, int64(i+1))
	}
	if c.accept != frameHeader || c.first != 8+frameHeader || c.done != int64(len(stream)-9) || c.hdrN != 0 || c.skip != 0 {
		t.Errorf("accept %d first %d done %d (stream %d bytes), parser left %d/%d", c.accept, c.first, c.done, len(stream), c.hdrN, c.skip)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the
// metric tables.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (def{d.name, d.unit, d.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloadEvents pins the event counts the workloads are quoted by.
func TestWorkloadEvents(t *testing.T) {
	want := map[string]int64{"ring-clc": 2150400, "wide-stat": 1075200, "svc-mix": 104992}
	for _, w := range workloads {
		if w.events() != want[w.name] {
			t.Errorf("%s: %d events, want %d", w.name, w.events(), want[w.name])
		}
	}
	w := small(t, "wide-stat")
	b, _, err := synthBytes(w.spec)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.NewSource(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if src.Events() != w.events() {
		t.Errorf("Synth emitted %d events, events() says %d", src.Events(), w.events())
	}
}
