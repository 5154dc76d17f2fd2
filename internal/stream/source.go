package stream

import (
	"context"
	"fmt"
	"io"
	"sync"

	"tsync/internal/trace"
)

// SourceOptions tune how a trace file is indexed.
type SourceOptions struct {
	// Salvage enables resynchronizing decode for v2 framed traces: on a
	// checksum or structure failure the index pass scans forward to the
	// next valid block instead of failing, records the damage per rank,
	// and keeps every event that survived intact. v1 traces carry no
	// checksums, so for them Salvage changes nothing — corruption still
	// fails the index pass.
	Salvage bool
	// MaxSkipBytes bounds the total bytes salvage may discard before the
	// run fails with trace.ErrSalvageBudget; zero means unlimited.
	MaxSkipBytes int64
	// MaxSkipEvents bounds the known-lost event count the same way.
	MaxSkipEvents int64
}

// Source is an indexed .etr file: the header and per-process metadata
// are held in memory (O(ranks + regions)), while events stay on disk and
// are decoded on demand through per-rank cursors. The index is built by
// one linear decode pass, so a corrupt or truncated file fails here with
// trace.ErrBadFormat before any analysis starts — unless salvage is
// enabled, in which case the damage is recorded instead and the index
// covers exactly the events that survived.
type Source struct {
	r     io.ReaderAt
	head  trace.Header
	procs []trace.ProcHeader
	// eventOff[i] and endOff[i] bound proc i's event bytes.
	eventOff, endOff []int64
	// firstRaw[i] is proc i's first event Time (0 when it has none);
	// the Lamport schedule and summary passes need it without a decode.
	firstRaw []float64
	events   int64

	version  int
	pol      trace.ResyncPolicy
	rep      trace.CorruptionReport
	loss     []RankLoss
	salvaged bool
}

// NewSource indexes a trace readable at r with strict (no salvage)
// decoding. The reader must cover the whole encoded trace.
func NewSource(r io.ReaderAt) (*Source, error) {
	return NewSourceOpts(r, SourceOptions{})
}

// NewSourceOpts indexes a trace readable at r under the given options.
// It is NewSourceContext with a background context; indexing a large
// file that a caller may want to abandon should go through
// NewSourceContext.
func NewSourceOpts(r io.ReaderAt, o SourceOptions) (*Source, error) {
	return NewSourceContext(context.Background(), r, o)
}

// NewSourceContext indexes a trace readable at r under the given
// options. The index pass is one linear decode of the whole file;
// cancelling ctx aborts it between events (checked every ctxCheckEvery
// events, like the streaming engine) and returns ctx.Err().
func NewSourceContext(ctx context.Context, r io.ReaderAt, o SourceOptions) (*Source, error) {
	const probe = 1 << 62 // section length; reads stop at EOF
	pol := trace.ResyncPolicy{Enabled: o.Salvage, MaxSkipBytes: o.MaxSkipBytes, MaxSkipEvents: o.MaxSkipEvents}
	er, err := trace.NewEventReaderOpts(io.NewSectionReader(r, 0, probe), pol)
	if err != nil {
		return nil, err
	}
	s := &Source{r: r, head: er.Header(), pol: pol, version: er.Version()}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ph, err := er.NextProc()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := s.admitRank(ph.Rank, o.Salvage, er.Position()); err != nil {
			return nil, err
		}
		declared := ph.EventCount
		start := er.SectionStart()
		first := 0.0
		prevTrue := 0.0
		n := 0
		var ev trace.Event
		for {
			if n&(ctxCheckEvery-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			err := er.Read(&ev)
			if err == io.EOF {
				er.TookGap() // a trailing gap severs nothing further
				break
			}
			if err != nil {
				return nil, err
			}
			gap := er.TookGap()
			if n == 0 {
				first = ev.Time
			}
			if n == 0 || gap {
				// a gap severs the monotonicity chain: the events on
				// either side are each internally ordered, but the lost
				// span between them is gone
				prevTrue = ev.True
			} else if ev.True < prevTrue {
				return nil, fmt.Errorf("%w: rank %d event %d: oracle time regressed", trace.ErrBadFormat, ph.Rank, n)
			} else {
				prevTrue = ev.True
			}
			n++
			s.events++
		}
		ph.EventCount = n
		s.procs = append(s.procs, ph)
		s.eventOff = append(s.eventOff, start)
		s.endOff = append(s.endOff, er.Position())
		s.firstRaw = append(s.firstRaw, first)
		l := RankLoss{Rank: ph.Rank}
		switch {
		case declared < 0:
			l.Unknown = true
		case declared > n:
			l.LostEvents = int64(declared - n)
		}
		s.loss = append(s.loss, l)
	}
	// ranks missing at the tail (their headers and frames all lost)
	if len(s.procs) < s.head.ProcCount {
		if !o.Salvage {
			return nil, fmt.Errorf("%w: trace declares %d processes, found %d", trace.ErrBadFormat, s.head.ProcCount, len(s.procs))
		}
		if end := er.Position(); int64(s.head.ProcCount)*minProcBytes > end {
			return nil, fmt.Errorf("%w: trace declares %d processes, more than its %d bytes can hold", trace.ErrBadFormat, s.head.ProcCount, end)
		}
		for r := len(s.procs); r < s.head.ProcCount; r++ {
			s.placeholderRank(r)
		}
	}
	s.rep = *er.Report()
	for _, inc := range s.rep.Incidents {
		if inc.Rank >= 0 && inc.Rank < len(s.loss) {
			s.loss[inc.Rank].Incidents++
			s.loss[inc.Rank].SkippedBytes += inc.SkippedBytes
		}
	}
	s.salvaged = len(s.rep.Incidents) > 0 || s.rep.LostEvents > 0 || s.rep.UnknownLoss
	return s, nil
}

// minProcBytes is the smallest encoding of one process section: a v1
// process header (rank, three core varints, an empty clock string, an
// event count) and no events; a v2 proc block is larger. Sections are
// stored in rank order, so rank r's section cannot end before byte
// (r+1)·minProcBytes. Salvage stands in placeholders for lost ranks
// only up to that bound: a rank number the bytes read so far could not
// reach is corruption, and trusting it would let a few bytes claim
// millions of placeholder ranks' worth of memory.
const minProcBytes = 6

// admitRank enforces that processes appear in contiguous rank order,
// filling ranks whose sections were lost entirely with empty
// placeholders under salvage. pos is the reader's position just past
// the process header.
func (s *Source) admitRank(rank int, salvage bool, pos int64) error {
	next := len(s.procs)
	if rank < next || rank >= s.head.ProcCount {
		return fmt.Errorf("stream: proc %d has rank %d", next, rank)
	}
	if rank == next {
		return nil
	}
	if !salvage {
		return fmt.Errorf("stream: proc %d has rank %d", next, rank)
	}
	if int64(rank+1)*minProcBytes > pos {
		return fmt.Errorf("%w: proc %d has rank %d, more processes than %d bytes can hold", trace.ErrBadFormat, next, rank, pos)
	}
	for r := next; r < rank; r++ {
		s.placeholderRank(r)
	}
	return nil
}

// placeholderRank stands in for a rank whose whole section was lost: no
// events, unknown loss.
func (s *Source) placeholderRank(r int) {
	s.procs = append(s.procs, trace.ProcHeader{Rank: r, Clock: "?"})
	s.eventOff = append(s.eventOff, 0)
	s.endOff = append(s.endOff, 0)
	s.firstRaw = append(s.firstRaw, 0)
	s.loss = append(s.loss, RankLoss{Rank: r, Unknown: true})
}

// Header returns the file header.
func (s *Source) Header() trace.Header { return s.head }

// Procs returns the per-process headers. Under salvage, EventCount is
// the retained count, not the (possibly lost) declared one.
func (s *Source) Procs() []trace.ProcHeader { return s.procs }

// Ranks returns the process count.
func (s *Source) Ranks() int { return len(s.procs) }

// Events returns the total (retained) event count.
func (s *Source) Events() int64 { return s.events }

// Version reports the codec version of the file (trace.Version1 or
// trace.Version2).
func (s *Source) Version() int { return s.version }

// Salvaged reports whether the index pass recovered from corruption:
// some bytes were skipped, events lost, or loss left uncountable. A
// salvage-enabled source over an intact file reports false.
func (s *Source) Salvaged() bool { return s.salvaged }

// Report returns the corruption report of the index pass.
func (s *Source) Report() *trace.CorruptionReport { return &s.rep }

// Losses returns per-rank decode-loss records (index 0..Ranks-1). The
// engine-side counters (dropped sends, orphaned receives, broken
// collectives) are zero here; Pipeline.Run fills them in its Stats. The
// slice is a copy — callers own it.
func (s *Source) Losses() []RankLoss {
	out := make([]RankLoss, len(s.loss))
	copy(out, s.loss)
	return out
}

// FirstTime returns rank's first event timestamp (its raw local Time),
// or 0 when the rank recorded no events.
func (s *Source) FirstTime(rank int) float64 { return s.firstRaw[rank] }

// eventDecoder is the per-rank section decoder: EventDecoder for v1
// bare event bytes, FrameDecoder for v2 framed blocks. Both deliver the
// same events the index pass retained, in the same order.
type eventDecoder interface {
	Decode(*trace.Event) error
	DecodeBatch([]trace.Event) (int, error)
}

// Cursor is a sequential decoder over one rank's events.
type Cursor struct {
	d         eventDecoder
	remaining int
}

// Cursor opens a fresh decoder over rank's events. Cursors are
// independent; any number may be open at once. For salvaged v2 sources
// the cursor re-resynchronizes over the same section with the same
// policy, so it retains exactly the events the index pass counted.
func (s *Source) Cursor(rank int) *Cursor {
	if s.procs[rank].EventCount == 0 {
		// nothing to decode: skip the decoder and its read buffer, which
		// a trace with many empty or lost ranks would pay once per rank
		return &Cursor{}
	}
	sec := io.NewSectionReader(s.r, s.eventOff[rank], s.endOff[rank]-s.eventOff[rank])
	var d eventDecoder
	if s.version == trace.Version2 {
		d = trace.NewFrameDecoder(sec, rank, s.pol)
	} else {
		d = trace.NewEventDecoder(sec)
	}
	return &Cursor{d: d, remaining: s.procs[rank].EventCount}
}

// Next decodes the rank's next event into ev, returning io.EOF after the
// last one.
func (c *Cursor) Next(ev *trace.Event) error {
	if c.remaining == 0 {
		return io.EOF
	}
	if err := c.d.Decode(ev); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	c.remaining--
	return nil
}

// slab is one fixed-capacity batch of decoded events — the unit of work
// the staged pipeline hands between decode, merge, and encode.
type slab struct {
	evs []trace.Event
}

// slabPool recycles slabs of one batch size, so the steady state of a
// pass allocates no event storage at all: the working set is the handful
// of slabs in flight between stages.
type slabPool struct {
	p sync.Pool
}

func newSlabPool(batch int) *slabPool {
	sp := &slabPool{}
	sp.p.New = func() any { return &slab{evs: make([]trace.Event, 0, batch)} }
	return sp
}

func (sp *slabPool) get() *slab { return sp.p.Get().(*slab) }

func (sp *slabPool) put(s *slab) {
	s.evs = s.evs[:0]
	sp.p.Put(s)
}

// fill decodes the rank's next batch of events into s, up to its
// capacity. It returns io.EOF (with an empty slab) once the rank is
// exhausted, and classifies a short batch exactly like Next would: a
// stream that ends while events are still owed is a truncation.
func (c *Cursor) fill(s *slab) error {
	n := min(cap(s.evs), c.remaining)
	if n == 0 {
		s.evs = s.evs[:0]
		return io.EOF
	}
	s.evs = s.evs[:n]
	m, err := c.d.DecodeBatch(s.evs)
	s.evs = s.evs[:m]
	c.remaining -= m
	if m < n {
		if err == nil || err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// slabMsg carries one decoded slab downstream; a non-nil err means the
// decode failed after s's events (which are still valid).
type slabMsg struct {
	s   *slab
	err error
}

// decodeRank is the per-rank decode stage: it fills pooled slabs ahead
// of the merge and sends them over a bounded channel. It exits when the
// rank is exhausted (closing ch), after sending a decode error, or when
// stop closes (the engine quit early). All state arrives as arguments —
// the goroutine captures nothing.
func decodeRank(cur *Cursor, pool *slabPool, ch chan<- slabMsg, stop <-chan struct{}) {
	defer close(ch)
	for {
		s := pool.get()
		err := cur.fill(s)
		if err == io.EOF {
			pool.put(s)
			return
		}
		select {
		case ch <- slabMsg{s: s, err: err}:
		case <-stop:
			pool.put(s)
			return
		}
		if err != nil {
			return
		}
	}
}

// slabCursor drains a decode stage one event at a time, recycling each
// slab as it empties.
type slabCursor struct {
	ch   <-chan slabMsg
	pool *slabPool
	s    *slab
	pos  int
	err  error
}

// slabCursor starts a decode-ahead stage over rank's events. Closing
// stop releases the stage's goroutine if the caller quits before
// draining it.
func (s *Source) slabCursor(rank int, pool *slabPool, stop <-chan struct{}) *slabCursor {
	ch := make(chan slabMsg, 1)
	go decodeRank(s.Cursor(rank), pool, ch, stop)
	return &slabCursor{ch: ch, pool: pool}
}

// nextRef returns a pointer to the rank's next event, or io.EOF after
// the last one. The pointee lives in the current slab: it stays valid
// until the slab drains (at most cap(evs) further nextRef calls), which
// is exactly as long as the merge engine holds a rank's head.
func (c *slabCursor) nextRef() (*trace.Event, error) {
	for c.s == nil || c.pos == len(c.s.evs) {
		if c.s != nil {
			c.pool.put(c.s)
			c.s = nil
		}
		if c.err != nil {
			return nil, c.err
		}
		msg, ok := <-c.ch
		if !ok {
			return nil, io.EOF
		}
		c.s, c.pos, c.err = msg.s, 0, msg.err
	}
	ev := &c.s.evs[c.pos]
	c.pos++
	return ev, nil
}
