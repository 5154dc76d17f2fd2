package stream_test

// Engine-level tests: deterministic error reporting across
// communicators, and the differential matrix at a rank count wide
// enough for the automatic merge tree and rank-indexed collective
// matching to carry real load.

import (
	"bytes"
	"reflect"
	"testing"

	"tsync/internal/analysis"
	"tsync/internal/core"
	"tsync/internal/faultinject"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

// handTrace encodes one event list per rank as a v1 trace. Time is set
// to True, and the header carries no latency table.
func handTrace(tb testing.TB, procs [][]trace.Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	ew, err := trace.NewEventWriterOpts(&buf, trace.Header{
		Machine: "hand", Timer: "oracle", Regions: []string{"r"}, ProcCount: len(procs),
	}, trace.WriterOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	for r, evs := range procs {
		if err := ew.BeginProc(trace.ProcHeader{Rank: r, EventCount: len(evs)}); err != nil {
			tb.Fatal(err)
		}
		for i := range evs {
			ev := evs[i]
			ev.SetTime(ev.True)
			if err := ew.Write(&ev); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := ew.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// coll builds a collective event; non-collective fields take their
// "unused" values.
func coll(kind trace.Kind, op trace.CollOp, comm, inst, root int32, tru float64) trace.Event {
	return trace.Event{Kind: kind, Op: op, Comm: comm, Instance: inst, Root: root,
		Region: -1, Partner: -1, True: tru}
}

// twoCommTrace: rank 0 begins a barrier on comm 2, then one on comm 1,
// and its stream ends; rank 1 begins and ends both. When rank 0
// finishes, both communicators hold an instance it began but never
// ended.
func twoCommTrace(t *testing.T) []byte {
	return handTrace(t, [][]trace.Event{
		{
			coll(trace.CollBegin, trace.OpBarrier, 2, 0, -1, 1),
			coll(trace.CollBegin, trace.OpBarrier, 1, 0, -1, 2),
		},
		{
			coll(trace.CollBegin, trace.OpBarrier, 2, 0, -1, 1.5),
			coll(trace.CollBegin, trace.OpBarrier, 1, 0, -1, 2.5),
			coll(trace.CollEnd, trace.OpBarrier, 2, 0, -1, 3),
			coll(trace.CollEnd, trace.OpBarrier, 1, 0, -1, 4),
		},
	})
}

// TestFinishRankCommOrder: when a rank finishes while it still has
// begun-but-unended instances on two communicators, the error must name
// the lower communicator on every run, not whichever one map order
// visits first.
func TestFinishRankCommOrder(t *testing.T) {
	data := twoCommTrace(t)
	const want = "stream: rank 0 began collective comm 1 instance 0 but never ended it"
	for run := 0; run < 50; run++ {
		src, err := stream.NewSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = stream.Census(src, stream.Options{})
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: got error %v, want %q", run, err, want)
		}
	}
}

// TestDifferentialWide runs the differential checks at 300 ranks, above
// the automatic shard threshold, with a collective round every step or
// every other step: the census matches the in-memory analysis under
// the automatic tree merge and the flat one, interp+CLC matches
// core.Pipeline byte for byte, and a burst-salvaged copy gives the same
// result and losses at every shard count.
func TestDifferentialWide(t *testing.T) {
	if testing.Short() {
		t.Skip("300-rank traces")
	}
	specs := []stream.SynthSpec{
		{Ranks: 300, Steps: 20, CollEvery: 1, Seed: xrand.SeedAt(diffSeed, 20)},
		{Ranks: 300, Steps: 20, CollEvery: 2, Seed: xrand.SeedAt(diffSeed, 21),
			Version: trace.Version2, FrameEvents: 32, Columnar: true},
	}
	for si, spec := range specs {
		path, init, fin := synthFile(t, spec)
		raw := readTrace(t, path)
		src := openSource(t, path)

		want, err := analysis.CensusOf(raw)
		if err != nil {
			t.Fatal(err)
		}
		if want.LogicalMessages == 0 {
			t.Fatalf("spec %d: no logical messages; collectives are not exercised", si)
		}
		for _, shards := range []int{0, 1} {
			got, _, err := stream.Census(src, stream.Options{Shards: shards})
			if err != nil {
				t.Fatalf("spec %d shards %d: census: %v", si, shards, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spec %d shards %d: census differs:\n stream %+v\n memory %+v", si, shards, got, want)
			}
		}

		mem, err := core.Pipeline{Base: core.BaseInterp, CLC: true}.Run(raw, init, fin)
		if err != nil {
			t.Fatalf("spec %d: in-memory: %v", si, err)
		}
		var memBuf bytes.Buffer
		if _, err := trace.Write(&memBuf, mem.Trace); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		res, err := (stream.Pipeline{Base: core.BaseInterp, CLC: true}).Run(src, &out, init, fin)
		if err != nil {
			t.Fatalf("spec %d: streaming: %v", si, err)
		}
		if !bytes.Equal(out.Bytes(), memBuf.Bytes()) {
			t.Errorf("spec %d: output bytes differ: %d vs %d bytes", si, out.Len(), memBuf.Len())
		}
		if res.CLCReport != mem.CLCReport {
			t.Errorf("spec %d: CLC report differs:\n stream %+v\n memory %+v", si, res.CLCReport, mem.CLCReport)
		}
	}

	// burst corruption of the framed trace: every shard count must
	// salvage the same events and report the same losses
	spec := specs[1]
	data := synthBytes(t, spec)
	flips := faultinject.NewBurstFlips(xrand.SeedAt(diffSeed, 22), int64(len(data)), 4, 64)
	var first *stream.Result
	for _, shards := range []int{1, 4} {
		src := salvageSource(t, data, flips, stream.SourceOptions{Salvage: true})
		if !src.Salvaged() {
			t.Fatal("corrupted input not reported as salvaged")
		}
		res, err := (stream.Pipeline{
			Base: core.BaseNone, CLC: true,
			Options: stream.Options{Salvage: true, Shards: shards},
		}).Run(src, nil, nil, nil)
		if err != nil {
			t.Fatalf("salvage shards %d: %v", shards, err)
		}
		if first == nil {
			first = res
			lost := 0
			for _, l := range res.Stats.Loss {
				if l.Any() {
					lost++
				}
			}
			if lost == 0 {
				t.Fatal("burst corruption reported no loss")
			}
			continue
		}
		if !reflect.DeepEqual(res, first) {
			t.Errorf("salvage shards %d: result differs from shards 1:\n got %+v\nwant %+v", shards, *res, *first)
		}
	}
}
