package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tsync/internal/core"
	"tsync/internal/stream"
	"tsync/internal/tsyncd"
)

// svcClients is the closed loop's client count: each client sends its
// next session only when the previous one has returned, as tsyncctl
// callers do.
const svcClients = 2

// svcInputs are svc-mix's six session kinds: the workload's events in
// each encoding, each once with the corrected trace returned and once
// analysis only.
type svcInputs struct {
	traces [][]byte // by encoding
	side   sidecar
	// sums and results are the direct stream.Pipeline.Run references.
	sums    []string
	results []*stream.Result
}

func (in *svcInputs) kind(k int64) (enc int, want bool) {
	return int(k % int64(len(encodings))), (k/int64(len(encodings)))%2 == 0
}

func makeSvcInputs(spec stream.SynthSpec) (*svcInputs, error) {
	in := &svcInputs{}
	for _, enc := range encodings {
		b, side, err := synthBytes(enc.apply(spec))
		if err != nil {
			return nil, err
		}
		in.traces, in.side = append(in.traces, b), side
	}
	return in, nil
}

// references runs each trace through stream.Pipeline.Run directly.
func (in *svcInputs) references() error {
	for _, b := range in.traces {
		src, err := stream.NewSource(bytes.NewReader(b))
		if err != nil {
			return err
		}
		h := newHash()
		res, err := stream.Pipeline{Base: core.BaseInterp, CLC: true}.Run(src, h, in.side.Init, in.side.Fin)
		if err != nil {
			return err
		}
		in.sums, in.results = append(in.sums, h.sum()), append(in.results, res)
	}
	return nil
}

// server is a tsyncd process the benchmark started.
type server struct {
	cmd     *exec.Cmd
	addr    string
	stdout  bytes.Buffer
	drained chan struct{} // closed once stderr hits EOF
}

// startServer runs bin with args and waits for its "listening on" line.
func startServer(bin string, args ...string) (*server, error) {
	s := &server{cmd: exec.Command(bin, args...), drained: make(chan struct{})}
	s.cmd.Stdout = &s.stdout
	s.cmd.SysProcAttr = orphanKill()
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "tsyncd: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, pipe)
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.drained:
	case <-time.After(30 * time.Second):
	}
	s.cmd.Process.Kill()
	<-s.drained
	return nil, fmt.Errorf("%s did not start listening: %v", bin, s.cmd.Wait())
}

// stop drains the server with SIGTERM, killing it if the drain hangs,
// and waits for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	kill := time.AfterFunc(30*time.Second, func() { s.cmd.Process.Kill() })
	defer kill.Stop()
	<-s.drained
	return s.cmd.Wait()
}

// procCPU reads a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	// utime and stime are fields 14 and 15 of stat, in clock ticks of
	// USER_HZ, which Linux fixes at 100 per second.
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// procHWM reads a process's peak resident set size from /proc.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sessionRec is one session as the client saw it.
type sessionRec struct {
	want     bool
	latency  time.Duration
	end      time.Time
	attempts int
	rejects  int
	// phases are admit, upload, run and reply, measured at the wrapped
	// connection of the session's last attempt (traced runs only).
	phases [4]time.Duration
}

var phaseNames = [4]string{"admit", "upload", "run", "reply"}

// sessionLoad runs svcClients closed-loop clients against addr until
// deadline and returns the sessions that completed and verified, and the
// number attempted.
func sessionLoad(ctx context.Context, addr string, in *svcInputs, seed uint64, deadline time.Time, t *tracer) ([]sessionRec, int) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		recs  []sessionRec
		tries int
		wg    sync.WaitGroup
	)
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := next.Add(1) - 1
				rec, err := session(ctx, addr, in, seed, k, t)
				mu.Lock()
				tries++
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: session %d: %v\n", k, err)
				} else {
					recs = append(recs, rec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, tries
}

// session runs and verifies session k.
func session(ctx context.Context, addr string, in *svcInputs, seed uint64, k int64, t *tracer) (sessionRec, error) {
	enc, want := in.kind(k)
	rec := sessionRec{want: want}
	cfg := tsyncd.ClientConfig{Addr: addr, Seed: seed + uint64(k)}
	var conns []*phaseConn
	if t != nil {
		cfg.Dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			pc := &phaseConn{Conn: c, t: t}
			conns = append(conns, pc)
			return pc, nil
		}
	}
	h := tsyncd.Hello{Tenant: "perfbench", Base: string(core.BaseInterp), CLC: true, WantTrace: want, Init: in.side.Init, Fin: in.side.Fin}
	var out io.Writer
	got := newHash()
	if want {
		out = got
	}
	t0 := t.now()
	start := time.Now()
	done, err := tsyncd.NewClient(cfg).Sync(ctx, h, bytes.NewReader(in.traces[enc]), out)
	rec.latency, rec.end = time.Since(start), time.Now()
	t1 := t.now()
	if err != nil {
		return rec, err
	}
	if done.Checksum != in.sums[enc] {
		return rec, fmt.Errorf("server checksum %s, direct run %s", done.Checksum, in.sums[enc])
	}
	if want && got.sum() != done.Checksum {
		return rec, fmt.Errorf("received bytes hash to %s, server reports %s", got.sum(), done.Checksum)
	}
	ref := in.results[enc]
	if r := done.Result; r == nil || r.Before != ref.Before || r.After != ref.After || r.CLCReport != ref.CLCReport || r.Distortion != ref.Distortion {
		return rec, errors.New("session result differs from the direct run")
	}
	if t == nil {
		return rec, nil
	}
	rec.attempts = len(conns)
	for _, c := range conns {
		c.mu.Lock()
		rec.rejects += int(c.reject)
		c.mu.Unlock()
	}
	if len(conns) == 0 {
		return rec, errors.New("traced session made no connection")
	}
	c := conns[len(conns)-1]
	c.mu.Lock()
	marks := [5]int64{c.hello, c.accept, c.eof, c.first, c.done}
	c.mu.Unlock()
	root := t.record("tsyncd.Client.Sync", -1, int(k), t0, t1)
	for i := range phaseNames {
		if i == 3 && !want {
			break // analysis-only sessions get DONE alone: no reply phase
		}
		rec.phases[i] = time.Duration(marks[i+1] - marks[i])
		t.record("tsyncd."+phaseNames[i], root, int(k), marks[i], marks[i+1])
	}
	return rec, nil
}

// serveOut is the traced server's report at exit.
type serveOut struct {
	Spans      []span
	Counters   map[string]int64
	Mallocs    uint64
	NumGC      uint32
	PauseTotal time.Duration
	HeapSys    uint64
}

// serveMain is the traced svc-mix server: tsyncd.Server at the same
// defaults as cmd/tsyncd (the zero Config), behind a wrapped listener.
func serveMain(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tsyncd: listening on %s\n", ln.Addr())
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	t := newTracer(0)
	cfg := tsyncd.Config{Logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tsyncd: "+format+"\n", args...)
	}}
	if err := tsyncd.New(cfg).Serve(ctx, &tracedListener{Listener: ln, t: t}); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := serveOut{Mallocs: ms.Mallocs, NumGC: ms.NumGC, PauseTotal: time.Duration(ms.PauseTotalNs), HeapSys: ms.HeapSys}
	out.Spans, out.Counters = t.snapshot()
	return json.NewEncoder(os.Stdout).Encode(out)
}

// svcWindow is one stretch of closed-loop sessions against one server.
type svcWindow struct {
	recs       []sessionRec
	tries      int
	wall       time.Duration
	serverCPU  time.Duration
	serverPeak int64
}

func (w *svcWindow) events(n int64) float64 { return float64(n) * float64(len(w.recs)) }

func measureWindow(ctx context.Context, s *server, in *svcInputs, seed uint64, d time.Duration, t *tracer) (*svcWindow, error) {
	pid := s.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	w := &svcWindow{}
	w.recs, w.tries = sessionLoad(ctx, s.addr, in, seed, start.Add(d), t)
	last := start
	for _, r := range w.recs {
		if r.end.After(last) {
			last = r.end
		}
	}
	w.wall = last.Sub(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	w.serverCPU = cpu1 - cpu0
	if w.serverPeak, err = procHWM(pid); err != nil {
		return nil, err
	}
	return w, nil
}

// svcRun measures svc-mix. The untraced run drives the real cmd/tsyncd
// binary for the whole time; the traced run drives it for half the time
// (the untraced reference) and the benchmark's own traced server for the
// other half.
func svcRun(ctx context.Context, w *workload, seed uint64, dir string, seconds time.Duration, traced bool) (metrics, int, int, error) {
	spec := w.synthSpec(seed)
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	tsyncdBin := filepath.Join(filepath.Dir(exe), "tsyncd")
	var setups []float64
	var in *svcInputs
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, 0, 0, err
			}
		}
		start := time.Now()
		if in, err = makeSvcInputs(spec); err != nil {
			return nil, 0, 0, err
		}
		if srv, err = startServer(tsyncdBin, "-addr", "127.0.0.1:0"); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	if err := in.references(); err != nil {
		return nil, 0, 0, err
	}

	n := w.events()
	d := seconds
	if traced {
		d = seconds / 2
	}
	plain, err := measureWindow(ctx, srv, in, seed, d, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	stopErr := srv.stop()
	srv = nil
	if stopErr != nil {
		return nil, 0, 0, fmt.Errorf("tsyncd drain: %w", stopErr)
	}
	attempted, failed := plain.tries, plain.tries-len(plain.recs)
	if len(plain.recs) == 0 {
		return metrics{}, attempted, failed, nil
	}
	if !traced {
		lat := make([]float64, len(plain.recs))
		for i, r := range plain.recs {
			lat[i] = r.latency.Seconds()
		}
		return metrics{
			"setup_s":          median(setups),
			"events_per_s":     plain.events(n) / plain.wall.Seconds(),
			"cpu_ns_per_event": float64(plain.serverCPU.Nanoseconds()) / plain.events(n),
			"peak_rss_mib":     float64(plain.serverPeak) / (1 << 20),
			"sessions_per_s":   float64(len(plain.recs)) / plain.wall.Seconds(),
			"session_p50_s":    median(lat),
			"session_p95_s":    quantile(lat, 0.95),
		}, attempted, failed, nil
	}

	tsrv, err := startServer(exe, "serve")
	if err != nil {
		return nil, attempted, failed, err
	}
	t := newTracer(0)
	tw, err := measureWindow(ctx, tsrv, in, seed, d, t)
	stopErr = tsrv.stop()
	if err != nil {
		return nil, attempted, failed, err
	}
	if stopErr != nil {
		return nil, attempted, failed, fmt.Errorf("traced server drain: %w", stopErr)
	}
	attempted += tw.tries
	failed += tw.tries - len(tw.recs)
	var so serveOut
	if err := json.Unmarshal(tsrv.stdout.Bytes(), &so); err != nil {
		return nil, attempted, failed, fmt.Errorf("traced server report: %w", err)
	}
	if len(tw.recs) == 0 {
		return metrics{}, attempted, failed, nil
	}
	sessions := float64(len(tw.recs))
	m := metrics{
		"trace.events_per_s":           tw.events(n) / tw.wall.Seconds(),
		"trace.untraced_events_per_s":  plain.events(n) / plain.wall.Seconds(),
		"tsyncd.bytes_in_per_session":  float64(so.Counters["server.bytes_in"]) / sessions,
		"tsyncd.bytes_out_per_session": float64(so.Counters["server.bytes_out"]) / sessions,
		"runtime.allocs_per_event":     float64(so.Mallocs) / tw.events(n),
		"runtime.gc_cycles":            float64(so.NumGC),
		"runtime.gc_pause_s":           so.PauseTotal.Seconds(),
		"runtime.peak_heap_mib":        float64(so.HeapSys) / (1 << 20),
		"runtime.parallelism":          tw.serverCPU.Seconds() / tw.wall.Seconds(),
	}
	m["trace.overhead_share"] = m["trace.untraced_events_per_s"]/m["trace.events_per_s"] - 1
	var attempts, rejects float64
	var ph [4][]float64
	for _, r := range tw.recs {
		attempts += float64(r.attempts)
		rejects += float64(r.rejects)
		for i := range ph {
			if i < 3 || r.want {
				ph[i] = append(ph[i], r.phases[i].Seconds())
			}
		}
	}
	m["tsyncd.attempts_per_session"] = attempts / sessions
	m["tsyncd.rejects"] = rejects
	for i, name := range phaseNames {
		m["tsyncd."+name+"_s.p50"] = median(ph[i])
		m["tsyncd."+name+"_s.p95"] = quantile(ph[i], 0.95)
	}
	spans, _ := t.snapshot()
	if err := saveSpans(w, seed, append(spans, so.Spans...)); err != nil {
		return nil, attempted, failed, err
	}
	// The layers below the server: the probes over the session traces,
	// with the v2-row encoding as the pipeline's input.
	row := encodings[1].apply(spec)
	if err := writeSynth(filepath.Join(dir, inputFile), row); err != nil {
		return nil, attempted, failed, err
	}
	pm, err := probe(ctx, w, spec, dir, encodingOf(row))
	if err != nil {
		return nil, attempted, failed, err
	}
	for k, v := range pm {
		m[k] = v
	}
	return m, attempted, failed, nil
}
