// Command benchmark is the clipping system's benchmark: five workloads that
// exercise the library's entry points — ClipCtx on clean and on degenerate
// inputs, tile-pyramid cutting, and batch overlay with and without repeated
// operands — each measured end to end, or per layer in a traced run. Every
// input is generated from -seed, and every run checks the program's
// outputs. See README.md in this directory.
//
// Usage:
//
//	go run . -workload all -seed 1 [-seconds 16] [-trace 0|1|FILE] [-out DIR]
//	go run . compare -base DIR -head DIR
//
// The last line of standard output is a JSON summary of the run. Each
// workload runs in a child process of its own, confined to one CPU, so peak
// RSS is the workload's; the exit status is nonzero when any output is
// wrong.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named set of inputs and the loop that runs them.
type workload struct {
	name string
	unit string // what work_per_s counts
	run  func(r *runner) error
}

// workloads in the order `all` runs them. BENCHMARK.json records why each
// one exists.
var workloads = []workload{
	{"clip-clean", "input edges/s", runClipClean},
	{"clip-degenerate", "input edges/s", runClipDegenerate},
	{"tiles", "pyramid tiles/s", runTiles},
	{"overlay-repeat", "features/s", runOverlay(0.5, 12)},
	{"overlay-unique", "features/s", runOverlay(0, 5)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// childTimeout bounds one workload's child process, so that a hung run
// still ends, with an error, within three minutes.
const childTimeout = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fl.String("workload", "all", "workload to run, or all")
	seed := fl.Int64("seed", 1, "seed every input derives from")
	seconds := fl.Float64("seconds", 16, "nominal length of each workload's timed part")
	trace := fl.String("trace", "0", "0: end-to-end metrics; 1 or a file name: a traced run reporting per-layer metrics, its spans written to the file (default .bench_build/spans.jsonl)")
	out := fl.String("out", "", "directory to add this run's results to, as run-NN.json")
	child := fl.Bool("child", false, "run the one workload in this process (the benchmark starts itself this way)")
	nproc := fl.Int("nproc", runtime.NumCPU(), "CPU count a traced run models parallel time for (a child, confined to one CPU, is told its parent's)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments or -seconds")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := config{root: root, seed: *seed, seconds: *seconds, trace: *trace != "0", nproc: *nproc}
	if cfg.trace {
		cfg.spans = *trace
		if *trace == "1" {
			cfg.spans = filepath.Join(root, ".bench_build", "spans.jsonl")
		}
	}

	if *child {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
		defer stop()
		res, err := runWorkload(ctx, w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if cfg.trace {
		if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := os.WriteFile(cfg.spans, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	results := map[string]result{}
	for _, w := range list {
		res, err := spawn(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printResult(os.Stdout, w, res)
		results[w.name] = res
	}
	if *out != "" {
		path, err := writeRun(*out, cfg, results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
	}
	sum := summarize(list, results)
	line, err := json.Marshal(sum)
	if err != nil {
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, w workload, cfg config) (result, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	r := newRunner(ctx, cfg)
	if err := w.run(r); err != nil {
		return result{}, err
	}
	res := r.result(w.name)
	if cfg.trace && cfg.spans != "" {
		if err := r.tr.write(cfg.spans, w.name); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// spawn runs one workload in a child process and reads its result.
func spawn(w workload, cfg config) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout+5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: cfg.spans}[cfg.trace], "-nproc", strconv.Itoa(cfg.nproc))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// On timeout the child gets SIGTERM first, which cancels its loop
	// between two operations; SIGKILL follows if it does not exit.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := startOnOneCPU(cmd); err != nil {
		return result{}, fmt.Errorf("starting child process: %w", err)
	}
	if err := cmd.Wait(); err != nil {
		return result{}, fmt.Errorf("child process: %w", err)
	}
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return result{}, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return []byte(lines[len(lines)-1])
}

// printResult prints every metric of one workload by name, with its unit.
func printResult(w io.Writer, wl workload, res result) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		n, m := d.name, res.Metrics[d.name]
		note := ""
		switch n {
		case "latency_p50_ms":
			note = fmt.Sprintf("  (%.0f operations in %.1f s; wall-clock median %.4g ms; host speed %.3f)",
				res.Info["operations"], res.Info["timed_s"], res.Info["wall_p50_ms"], res.Info["speed"])
		case "latency_tail_ms":
			note = fmt.Sprintf("  (p%.0f of %.0f operations)", res.Info["tail_percentile"], res.Info["operations"])
		case "work_per_s":
			note = "  (" + wl.unit + ")"
		}
		fmt.Fprintf(w, "%-16s %-28s %14.6g %s%s\n", wl.name, n, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "%-16s %-28s %14.6g ratio  (%d failed of %d attempted)\n", wl.name, "fail_ratio",
		res.Info["fail_ratio"], res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%-16s FAILED: %s\n", wl.name, f)
	}
}

// summary is the JSON object the last line of standard output carries.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize folds the run's results into one summary; with several
// workloads each metric name is prefixed with its workload's.
func summarize(list []workload, results map[string]result) summary {
	s := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range list {
		res := results[w.name]
		s.Correct = s.Correct && res.Correct
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		for n, m := range res.Metrics {
			if len(list) > 1 {
				n = w.name + "/" + n
			}
			s.Metrics[n] = m
		}
	}
	return s
}

// runFile is what -out stores per run.
type runFile struct {
	Env       env               `json:"env"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads map[string]result `json:"workloads"`
}

// env describes where a run was made.
type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	GoLines    int    `json:"non_test_go_lines"`
	Date       string `json:"date"`
}

// writeRun adds the run to dir as the next free run-NN.json.
func writeRun(dir string, cfg config, results map[string]result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	lines, err := goLines(cfg.root)
	if err != nil {
		return "", err
	}
	rf := runFile{
		Env: env{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Seed: cfg.seed, GoLines: lines, Date: time.Now().UTC().Format(time.RFC3339)},
		Seconds: cfg.seconds, Traced: cfg.trace, Workloads: results,
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return "", err
	}
	for i := 1; ; i++ {
		path := filepath.Join(dir, fmt.Sprintf("run-%02d.json", i))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
}

// goLines counts the lines of the repository's non-test Go files outside
// this benchmark and the build directory: the code-size number tracked
// beside speed.
func goLines(root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "benchmark", ".bench_build", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			n++
		}
		return sc.Err()
	})
	return n, err
}

// repoRoot finds the repository under test: the nearest directory, from
// the working directory up, whose go.mod declares module polyclip.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0]) == "module polyclip" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory with module polyclip's go.mod above the working directory")
		}
		dir = parent
	}
}
