// Command perfbench is tsync's benchmark. It runs one workload from a
// seed, checks every output against a reference computed outside the
// timed region, and prints the metrics as one JSON object on its last
// line of output: the end-to-end metrics untraced (--trace 0), the
// per-layer metrics from a traced run (--trace 1). See README.md.
//
// Build and run it from the root of a checkout with run.sh, which also
// builds the tsyncd binary the svc-mix workload drives:
//
//	bash perfbench/run.sh --workload ring-clc --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	ctx := context.Background()
	if len(os.Args) > 1 {
		var err error
		switch mode := os.Args[1]; mode {
		case "job", "ref", "probe":
			err = childMain(ctx, mode, os.Args[2:])
		case "serve":
			err = serveMain(ctx)
		default:
			os.Exit(benchMain(ctx, os.Args[1:]))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", os.Args[1], err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(ctx, nil))
}

// buildDir is the directory holding this binary and the tsyncd binary
// run.sh builds next to it; work directories and span files go under it.
func buildDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Dir(exe), nil
}

func benchMain(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: ring-clc, wide-stat or svc-mix")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 20, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ring-clc|wide-stat|svc-mix, --seconds >= 1 and --trace 0|1")
		return 2
	}
	res, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("# runtime: %s nproc=%d GOMAXPROCS=%d seed=%d workload=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, w.name)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run measures workload w in a fresh work directory.
func run(ctx context.Context, w *workload, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	bd, err := buildDir()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(bd, "work", fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	measure := fileRun
	if w.kind == kindService {
		measure = svcRun
	}
	vals, attempted, failed, err := measure(ctx, w, seed, dir, seconds, traced)
	if err != nil {
		return nil, err
	}
	if attempted == 0 {
		return nil, fmt.Errorf("%s attempted nothing", w.name)
	}
	ms, err := render(vals, traced)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// saveSpans writes a traced run's spans next to the build, one file per
// workload and seed, once the run has ended.
func saveSpans(w *workload, seed uint64, spans []span) error {
	bd, err := buildDir()
	if err != nil {
		return err
	}
	dir := filepath.Join(bd, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), blob, 0o644)
}
