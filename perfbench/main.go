// Command perfbench is pracsim's end-to-end benchmark. It draws a
// workload's inputs from a seed, runs the workload as closed batches
// ("rounds") against the program's public packages for a fixed time,
// checks every output against the first round and, for the default
// seed, against pinned digests, and prints one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it runs one untraced round and then a serial traced
// pass over the same inputs and reports the per-layer metrics.
//
//	perfbench -workload grid-mixed -seed 1 -seconds 22 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// benchWorkers is every workload's concurrency: the 2-core runner the
// benchmark is sized for.
const benchWorkers = 2

// defaultSeed is the seed whose outputs reference.json pins.
const defaultSeed = 1

// round is one closed batch of a workload, after its set-up.
type round interface {
	// run is the measured window: every call into the program.
	run() error
	// outputs returns what the gate checks; it runs after the window.
	outputs() ([]output, error)
	// problems returns failed cross-checks of the outputs.
	problems() []string
	// modelLines describes simulated results; they are not metrics.
	modelLines() []string
	close() error
}

type workload struct {
	name string
	// setup prepares one round in an empty directory; together with
	// drawing the inputs it is timed as setup_s.
	setup func(in Inputs, dir string) (round, error)
	// trace re-drives an untraced round's work serially under spans.
	trace func(in Inputs, rd round, dir string, rec *recorder) error
}

func workloads() []workload {
	var direct []byte
	return []workload{
		{"grid-mixed", gridSetup([]string{"fig10", "fig11", "fig12"}, 10_000, 20_000, func(in Inputs) []string { return in.Grid }), traceGrid},
		{"sweep-noreset", gridSetup([]string{"fig14"}, 10_000, 20_000, func(in Inputs) []string { return in.Sweep }), traceGrid},
		{"attack-suite", attackSetup, traceAttacks},
		{"service-jobs", serviceSetup(&direct), traceService},
	}
}

// setupSamples is the fewest set-ups a run times. Set-up is short next
// to a round, so when few rounds fit, extra set-ups are timed and
// closed unused to keep setup_s a median rather than one reading.
const setupSamples = 21

// timedSetup draws the inputs and prepares a round, timing both.
func timedSetup(w workload, seed int64, dir string) (round, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	rd, err := w.setup(Draw(seed), dir)
	return rd, time.Since(t0).Seconds(), err
}

// e2eMetrics lists the end_to_end metrics of BENCHMARK.json, in order.
// All are lower-is-better. failed_frac is printed beside them but is
// not a metric: it is 0 on a correct run, and the result line carries
// its parts as attempted and failed.
var e2eMetrics = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// sample is one round's end-to-end measurement.
type sample struct {
	setup, wall, cpu, allocMB float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runRound sets up, measures and checks one round. The caller closes
// the returned round.
func runRound(w workload, seed int64, dir string, g *gate) (sample, round, error) {
	rd, setup, err := timedSetup(w, seed, dir)
	s := sample{setup: setup}
	if err != nil {
		return s, nil, fmt.Errorf("setup: %w", err)
	}
	cpu0, alloc0 := cpuSeconds(), totalAlloc()
	t1 := time.Now()
	err = rd.run()
	s.wall = time.Since(t1).Seconds()
	s.cpu = cpuSeconds() - cpu0
	s.allocMB = float64(totalAlloc()-alloc0) / (1 << 20)
	if err != nil {
		return s, rd, err
	}
	outs, err := rd.outputs()
	if err != nil {
		return s, rd, fmt.Errorf("collecting outputs: %w", err)
	}
	g.check(outs, rd.problems())
	return s, rd, nil
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: grid-mixed, sweep-noreset, attack-suite or service-jobs")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time; rounds repeat while another fits")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	work := flag.String("dir", filepath.Join(".bench_build", "work"), "directory for round scratch files (removed on exit) and span files")
	flag.Parse()
	if err := benchmark(*name, *seed, *seconds, *traced == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(name string, seed int64, seconds float64, traced bool, work string) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	in := Draw(seed)
	var w workload
	for _, cand := range workloads() {
		if cand.name == name {
			w = cand
		}
	}
	if w.setup == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var pinned map[string]string
	if seed == ref.Seed {
		if pinned = ref.Workloads[name]; pinned == nil {
			return fmt.Errorf("reference.json pins no digests for %s", name)
		}
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.RemoveAll(dir)
	fmt.Print(in.String())

	g := newGate(pinned)
	var samples []sample
	var last round
	start := time.Now()
	for i := 0; ; i++ {
		s, rd, err := runRound(w, seed, filepath.Join(dir, fmt.Sprint(i)), g)
		samples = append(samples, s)
		if err != nil {
			g.failOp(err)
		}
		if rd != nil {
			// Closed before the next round so an idle daemon never
			// shares the machine with a measured window.
			if cerr := rd.close(); cerr != nil {
				g.failOp(cerr)
			}
			last = rd
		}
		elapsed := time.Since(start).Seconds()
		if err != nil || traced || elapsed*float64(i+2)/float64(i+1) > seconds {
			break
		}
	}
	col := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	setups := col(func(s sample) float64 { return s.setup })
	for i := len(samples); len(setups) < setupSamples && g.failed == 0; i++ {
		rd, t, err := timedSetup(w, seed, filepath.Join(dir, fmt.Sprint(i)))
		if err == nil {
			err = rd.close()
		}
		if err != nil {
			g.failOp(fmt.Errorf("setup: %w", err))
			break
		}
		setups = append(setups, t)
	}
	walls := col(func(s sample) float64 { return s.wall })
	values := map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(col(func(s sample) float64 { return s.cpu })),
		"setup_s":     median(setups),
		"alloc_mb":    median(col(func(s sample) float64 { return s.allocMB })),
		"peak_rss_mb": peakRSSMB(),
	}
	e2e := map[string]metric{}
	for _, m := range e2eMetrics {
		e2e[m.name] = metric{values[m.name], m.unit}
	}
	q := quartiles(walls)
	fmt.Printf("rounds: %d; wall_s quartiles %.4f %.4f %.4f; per round %.4f\n", len(samples), q[0], q[1], q[2], walls)

	metrics := e2e
	if traced && last != nil && g.failed == 0 {
		rec := newRecorder(g)
		t0 := time.Now()
		if err := w.trace(in, last, filepath.Join(dir, "traced"), rec); err != nil {
			g.failOp(fmt.Errorf("traced pass: %w", err))
		}
		rec.set("bench.trace_overhead_s", time.Since(t0).Seconds()-e2e["wall_s"].Value)
		if err := rec.write(filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
			g.failOp(fmt.Errorf("writing spans: %w", err))
		}
		metrics = rec.metrics()
		for _, m := range layerMetrics {
			fmt.Printf("layer: %s = %.6g %s (moves %s)\n", m.name, metrics[m.name].Value, m.unit, m.moves)
		}
		for _, n := range rec.notes {
			fmt.Println("layer note:", n)
		}
	}
	if last != nil {
		for _, line := range last.modelLines() {
			fmt.Println(line)
		}
	}
	for _, line := range g.digests() {
		fmt.Printf("digest: %s %s\n", name, line)
	}
	for _, p := range g.problems {
		fmt.Println("FAILED:", p)
	}
	res := result{Correct: g.failed == 0, Attempted: max(g.attempted, 1), Failed: g.failed, Metrics: metrics}
	for _, m := range e2eMetrics {
		fmt.Printf("metric: %s = %.6g %s\n", m.name, e2e[m.name].Value, m.unit)
	}
	fmt.Printf("metric: failed_frac = %.6g ratio (%d of %d operations)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}
