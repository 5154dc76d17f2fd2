package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark opens call spans
// around the public functions it invokes, and the wrappers in wrap.go
// record a leaf span for every call the program makes into an injected
// reader, writer, spill file or connection.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent indexes the enclosing span; -1 marks a root.
	Parent int `json:"parent"`
	Run    int `json:"run"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer is the untraced configuration: every method is a no-op, so
// call sites need no branches and the untraced run installs no wrapper.
type tracer struct {
	epoch time.Time
	run   int

	mu       sync.Mutex
	spans    []span
	cur      int // innermost open call span, the parent of leaf spans
	counters map[string]int64
}

func newTracer(run int) *tracer {
	return &tracer{epoch: time.Now(), run: run, cur: -1, counters: map[string]int64{}}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a call span under the current one and makes it current.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: t.cur, Run: t.run})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes the call span opened by begin and restores its parent.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = stop
	t.cur = t.spans[id].Parent
}

// leaf records a finished call that started at start under the current
// call span.
func (t *tracer) leaf(name string, start int64) {
	if t == nil {
		return
	}
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: stop, Parent: t.cur, Run: t.run})
}

// record adds a finished span with an explicit parent and run id, for
// callers on several goroutines where "current" has no meaning.
func (t *tracer) record(name string, parent, run int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: run})
	return len(t.spans) - 1
}

func (t *tracer) add(counter string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[counter] += n
	t.mu.Unlock()
}

// snapshot returns copies of the spans and counters.
func (t *tracer) snapshot() ([]span, map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		c[k] = v
	}
	return append([]span(nil), t.spans...), c
}

// layerKey names the layer a span's time is charged to. Leaf spans are
// charged to the layer before the first dot of their name ("read",
// "spill", "out"), call spans to their full name.
func layerKey(s span, leaf bool) string {
	if leaf {
		if i := strings.IndexByte(s.Name, '.'); i > 0 {
			return s.Name[:i]
		}
	}
	return s.Name
}

// selfTimes charges every nanosecond of the spans to exactly one layer:
// a call span keeps its duration minus the part its children cover, and
// the leaf spans of one layer under one parent are charged their union,
// because the program issues them from several goroutines at once. The
// sum over layers therefore equals the root spans' total duration, up to
// overlap between different leaf layers running concurrently.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.Parent >= 0 && len(kids[i]) == 0 {
			continue // charged with its siblings below
		}
		out[layerKey(s, false)] += time.Duration(s.End-s.Start) - union(spans, kids[i])
		leaves := map[string][]int{}
		for _, k := range kids[i] {
			if len(kids[k]) == 0 {
				key := layerKey(spans[k], true)
				leaves[key] = append(leaves[key], k)
			}
		}
		for key, group := range leaves {
			out[key] += union(spans, group)
		}
	}
	return out
}

// union returns the length of the union of the spans' intervals.
func union(spans []span, idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for j, i := range idx {
		iv[j] = [2]int64{spans[i].Start, spans[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return time.Duration(total + hi - lo)
}

// spanDur sums the durations of the spans with the given name.
func spanDur(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}
