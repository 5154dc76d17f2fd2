package stream_test

// Fuzzing for the streaming engine behind tracestat and tsyncd: any
// byte string given to NewSource, then Summarize and Census, strict and
// under salvage, must come back as a result or an error — never a
// panic, and never a walk that runs past its deadline.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"tsync/internal/stream"
	"tsync/internal/trace"
)

// fuzzDeadline bounds one input's work; the seeds finish in
// milliseconds, so reaching it means the engine hung.
const fuzzDeadline = 10 * time.Second

func FuzzStreamCensus(f *testing.F) {
	for _, spec := range []stream.SynthSpec{
		{Ranks: 3, Steps: 6, CollEvery: 2, Seed: 1},
		{Ranks: 3, Steps: 6, CollEvery: 1, Seed: 2, Version: trace.Version2, FrameEvents: 4},
		{Ranks: 4, Steps: 5, CollEvery: 2, Seed: 3, Version: trace.Version2, FrameEvents: 4, Columnar: true},
	} {
		var buf bytes.Buffer
		if _, _, err := stream.Synth(spec, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	send := func(to int32, tru float64) trace.Event {
		return trace.Event{Kind: trace.Send, Partner: to, Region: -1, True: tru}
	}
	recv := func(from int32, tru float64) trace.Event {
		return trace.Event{Kind: trace.Recv, Partner: from, Region: -1, True: tru}
	}
	for _, procs := range [][][]trace.Event{
		// rooted collectives with no root (-1) and a root past the last
		// rank
		{
			{coll(trace.CollBegin, trace.OpBcast, 0, 0, -1, 1), coll(trace.CollEnd, trace.OpBcast, 0, 0, -1, 3)},
			{coll(trace.CollBegin, trace.OpBcast, 0, 0, -1, 2), coll(trace.CollEnd, trace.OpBcast, 0, 0, -1, 4)},
		},
		{
			{coll(trace.CollBegin, trace.OpBcast, 0, 0, 2, 1), coll(trace.CollEnd, trace.OpBcast, 0, 0, 2, 3)},
			{coll(trace.CollBegin, trace.OpReduce, 0, 1, 2, 2), coll(trace.CollEnd, trace.OpReduce, 0, 1, 2, 4)},
		},
		// negative partners
		{{send(-1, 1)}, {recv(-3, 2)}},
		// an end without its begin, and duplicate begins
		{
			{coll(trace.CollEnd, trace.OpBarrier, 0, 0, -1, 1)},
			{coll(trace.CollBegin, trace.OpAllreduce, 0, 0, -1, 1), coll(trace.CollBegin, trace.OpAllreduce, 0, 0, -1, 2)},
		},
	} {
		f.Add(handTrace(f, procs))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
		defer cancel()
		for _, salvage := range []bool{false, true} {
			src, err := stream.NewSourceContext(ctx, bytes.NewReader(data), stream.SourceOptions{Salvage: salvage})
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("salvage=%v: no source within %v", salvage, fuzzDeadline)
				}
				continue
			}
			_, _, serr := stream.SummarizeContext(ctx, src)
			_, _, cerr := stream.CensusContext(ctx, src, stream.Options{Salvage: salvage})
			if errors.Is(serr, context.DeadlineExceeded) || errors.Is(cerr, context.DeadlineExceeded) {
				t.Fatalf("salvage=%v: no result within %v", salvage, fuzzDeadline)
			}
		}
	})
}
