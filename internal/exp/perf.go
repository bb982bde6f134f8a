package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pracsim/internal/analysis"
	"pracsim/internal/energy"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/pool"
	"pracsim/internal/exp/shard"
	"pracsim/internal/exp/store"
	"pracsim/internal/sim"
	"pracsim/internal/stats"
	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// Scale controls how much work the performance experiments simulate and
// how that work is scheduled.
type Scale struct {
	Warmup    int64    // warmup instructions per core
	Measured  int64    // measured instructions per core
	Workloads []string // nil = all 50 catalog workloads

	// Workers caps experiment concurrency: 0 fans the (variant,
	// workload) grid across every GOMAXPROCS core, otherwise exactly
	// Workers simulations run at once. Results are bit-identical at
	// any setting — each simulation is self-contained and results are
	// assembled by grid position, never by completion order.
	Workers int
	// Serial forces single-threaded execution (equivalent to
	// Workers=1); the debugging knob.
	Serial bool

	// PerCycle forces the reference per-cycle clocking instead of
	// demand-driven idle elision — the clock-model debugging knob.
	PerCycle bool
	// Differential runs every simulation under both clockings and fails
	// on any divergence: the paranoid validation mode for the elision
	// machinery, at roughly the cost of both clockings combined.
	Differential bool
}

// QuickScale is a minutes-not-days configuration: a representative subset
// of workloads and short instruction budgets. Shapes are preserved;
// absolute averages move by a few tenths of a percent versus FullScale.
func QuickScale() Scale {
	return Scale{
		Warmup:   20_000,
		Measured: 40_000,
		Workloads: []string{
			"433.milc", "470.lbm", "429.mcf", "nutch", // High
			"401.bzip2", "657.xz", // Medium
			"444.namd", "631.deepsjeng", // Low
		},
	}
}

// FullScale runs the whole 50-workload catalog with larger budgets.
func FullScale() Scale {
	return Scale{Warmup: 50_000, Measured: 150_000}
}

func (s Scale) workloads() []string {
	if len(s.Workloads) > 0 {
		return s.Workloads
	}
	var names []string
	for _, w := range trace.Catalog() {
		names = append(names, w.Name)
	}
	return names
}

// Variant is one mitigation configuration under test.
type Variant struct {
	Name       string
	Policy     sim.PolicyKind
	NRH        int // RowHammer threshold; NBO is set to NRH
	PRACLevel  int // RFMs per ABO (0 = 1)
	TREFEvery  int // targeted refresh every k tREFI (0 = off)
	SkipOnTREF bool
	NoReset    bool // disable per-tREFW counter reset
}

// configure builds the system configuration for a variant and workload.
func (r *runner) configure(v Variant, workload string) (sim.SystemConfig, error) {
	nrh := v.NRH
	if nrh <= 0 {
		nrh = 1024
	}
	cfg := sim.DefaultSystemConfig(nrh)
	cfg.Workload = workload
	cfg.Policy = v.Policy
	if v.PRACLevel > 0 {
		cfg.DRAM.PRAC.NMit = v.PRACLevel
	}
	cfg.DRAM.PRAC.ResetOnREFW = !v.NoReset
	cfg.Ctrl.TREFEvery = v.TREFEvery
	cfg.SkipOnTREF = v.SkipOnTREF

	if v.Policy != sim.PolicyTPRAC && v.Policy != sim.PolicyTPRACpb && v.Policy != sim.PolicyACB {
		return cfg, nil
	}
	p := analysis.ParamsFromDRAM(cfg.DRAM)
	w, err := r.solveWindow(p, nrh, !v.NoReset)
	if err != nil {
		return cfg, fmt.Errorf("exp: variant %s: %w", v.Name, err)
	}
	if v.Policy == sim.PolicyACB {
		// The same worst-case mitigation rate, but activity-triggered:
		// one RFM per BAT activations of a bank.
		cfg.BAT = max(p.ActsPerWindow(w), 2)
		return cfg, nil
	}
	// A TB-Window must leave room to actually service one RFM (tRFMab
	// plus drain) or the RFM debt accrues faster than it retires and the
	// channel livelocks. Solved windows below the floor are clamped: the
	// defense then runs at its feasibility limit, which only the
	// NRH=128-without-reset corner reaches (the paper's Section 6.6
	// observation that disabling counter reset hurts at ultra-low
	// thresholds, taken to its end point).
	cfg.TBWindow = max(w, cfg.DRAM.Timing.TRFMab+ticks.FromNS(250))
	return cfg, nil
}

// solveKey identifies one TB-Window solve.
type solveKey struct {
	p     analysis.Params
	nbo   int
	reset bool
}

// solveWindow returns the TB-Window for a threshold, solved once per
// session: every variant and workload at that threshold shares it.
func (r *runner) solveWindow(p analysis.Params, nbo int, reset bool) (ticks.T, error) {
	return r.windows.Do(solveKey{p: p, nbo: nbo, reset: reset}, func() (ticks.T, error) {
		return p.SolveWindow(nbo, reset, 0)
	})
}

// PerfRun is one measured simulation.
type PerfRun struct {
	Workload string
	Variant  string
	Result   sim.RunResult
}

// runKey identifies one simulation up to result equality: the display
// name never affects a run, and defaulted fields are canonicalized
// (NRH=0 means 1024, PRACLevel=0 means 1), so variants spelled
// differently by different figures still share one execution.
type runKey struct {
	v        Variant
	workload string
}

func canonicalKey(v Variant, workload string) runKey {
	v.Name = ""
	if v.NRH <= 0 {
		v.NRH = 1024
	}
	if v.PRACLevel <= 0 {
		v.PRACLevel = 1
	}
	return runKey{v: v, workload: workload}
}

// runner executes experiment grids on a worker pool. A single-flight
// cache keyed by canonicalized (variant, workload) deduplicates
// identical simulations — per-workload baselines run once no matter how
// many variants normalize against them, and configurations shared
// between experiments (Table 5 re-runs Figure 13's TPRAC points)
// execute once per runner. Underneath the in-process cache sit the
// cross-process layers (see SessionOptions): the persistent run store,
// imported shard results, and the shard ownership filter. Solved
// TB-Windows are memoized per runner too, so a long-lived process holds
// no solves beyond its live sessions.
type runner struct {
	scale   Scale
	pool    *pool.Pool
	cache   pool.Cache[runKey, sim.RunResult]
	windows pool.Cache[solveKey, ticks.T]
	tlog    telemetryLog

	store     *store.Store
	journal   *journal.Journal
	shardSpec shard.Spec
	executed  atomic.Int64

	mu   sync.Mutex
	seed map[string][]byte // imported shard entries, by store key
	ran  []shard.Entry     // executed runs, collected for ExportShard
}

func newRunner(scale Scale) *runner { return newRunnerWith(scale, SessionOptions{}) }

func newRunnerWith(scale Scale, opts SessionOptions) *runner {
	workers := scale.Workers
	if scale.Serial {
		workers = 1
	}
	return &runner{
		scale:     scale,
		pool:      pool.New(workers),
		store:     opts.Store,
		journal:   opts.Journal,
		shardSpec: opts.Shard,
	}
}

// run returns one simulation's result, trying the cheapest source first:
// the in-process single-flight cache, the persistent store, imported
// shard results, and only then an actual execution — which this shard
// performs only for the run keys it owns. Concurrent callers with
// equivalent configurations share a single lookup-or-execution.
func (r *runner) run(v Variant, workload string) (sim.RunResult, error) {
	return r.cache.Do(canonicalKey(v, workload), func() (sim.RunResult, error) {
		skey := storeKey(r.scale, canonicalKey(v, workload))
		// The validation/debugging clockings exist to actually execute
		// the simulation (Differential runs both clockings and compares;
		// PerCycle forces the reference model) — a warm store serving
		// the result would silently validate nothing, so those modes
		// bypass the persistent layer entirely.
		warmable := !r.scale.Differential && !r.scale.PerCycle
		if warmable && r.journal != nil {
			// The crash-recovery layer: a run the interrupted invocation
			// already completed is served from its journal, store or no
			// store. No re-append — the record is already durable.
			if data, ok := r.journal.Run(skey); ok {
				if res, err := sim.DecodeResult(data); err == nil {
					r.recordOwned(skey, data)
					return res, nil
				}
			}
		}
		if warmable && r.store != nil {
			if data, ok := r.store.Get(skey); ok {
				if res, err := sim.DecodeResult(data); err == nil {
					r.journalRun(skey, data)
					r.recordOwned(skey, data)
					return res, nil
				}
				// Checksum-valid but schema-stale entry: recompute and
				// overwrite below.
			}
		}
		if warmable {
			r.mu.Lock()
			data, imported := r.seed[skey]
			r.mu.Unlock()
			if imported {
				if res, err := sim.DecodeResult(data); err == nil {
					r.journalRun(skey, data)
					r.recordOwned(skey, data)
					return res, nil
				}
			}
		}
		if !r.shardSpec.Owns(skey) {
			return sim.RunResult{}, fmt.Errorf("%w: %s", ErrShardSkipped, skey)
		}
		cfg, err := r.configure(v, workload)
		if err != nil {
			return sim.RunResult{}, err
		}
		if r.scale.PerCycle {
			cfg.Clock = sim.ClockPerCycle
		}
		var res sim.RunResult
		if r.scale.Differential {
			res, err = sim.RunDifferential(cfg, r.scale.Warmup, r.scale.Measured)
		} else {
			var sys *sim.System
			sys, err = sim.NewSystem(cfg)
			if err != nil {
				return sim.RunResult{}, err
			}
			res, err = sys.Run(r.scale.Warmup, r.scale.Measured)
		}
		if err != nil {
			return sim.RunResult{}, fmt.Errorf("exp: %s on %s: %w", v.Name, workload, err)
		}
		r.executed.Add(1)
		r.tlog.add(RunTelemetry{Variant: v.Name, Workload: workload, T: res.Telemetry})
		if r.store != nil || r.journal != nil || r.shardSpec.Count > 0 {
			if data, eerr := sim.EncodeResult(res); eerr == nil {
				if warmable && r.store != nil {
					// Best-effort: a failed write costs a future
					// recompute, never correctness.
					_ = r.store.Put(skey, data)
				}
				if warmable {
					r.journalRun(skey, data)
				}
				r.recordOwned(skey, data)
			}
		}
		return res, nil
	})
}

// journalRun appends a resolved run to the session journal. Every
// source counts — executed, store hit, imported seed — because the
// journal must stand alone on resume: the store may be gone, degraded,
// or turned off next time. Best-effort, like every durability write.
func (r *runner) journalRun(skey string, data []byte) {
	if r.journal != nil {
		_ = r.journal.AppendRun(skey, data)
	}
}

// recordOwned collects a result for ExportShard. Store and seed hits are
// recorded exactly like executions: a shard file must hold every run its
// shard owns — a warm store making the simulation free must not make the
// run silently vanish from the merge.
func (r *runner) recordOwned(skey string, data []byte) {
	if r.shardSpec.Count == 0 || !r.shardSpec.Owns(skey) {
		return
	}
	r.mu.Lock()
	r.ran = append(r.ran, shard.Entry{Key: skey, Payload: data})
	r.mu.Unlock()
}

func (r *runner) baseline(workload string) (sim.RunResult, error) {
	res, err := r.run(Variant{Name: "Baseline", Policy: sim.PolicyNone}, workload)
	if err != nil {
		return res, fmt.Errorf("exp: baseline %s: %w", workload, err)
	}
	return res, nil
}

// prefetchBaselines primes the per-workload baselines across the pool
// so grid jobs don't stack up behind their shared baseline's single
// flight. Baselines owned by another shard are simply not primed.
func (r *runner) prefetchBaselines(names []string) error {
	return r.pool.Run(len(names), func(i int) error {
		_, err := r.baseline(names[i])
		return ignoreSkip(err)
	})
}

// normalized runs a variant over a workload and returns performance
// normalized to the no-ABO baseline (the paper's metric: weighted speedup
// relative to baseline, which for homogeneous mixes reduces to the IPC-sum
// ratio).
//
// Both legs are always attempted: in a sharded grid this shard may own
// the variant run while another shard owns the baseline (or vice versa),
// and the eventual merge depends on every owned run executing here even
// when its cell cannot be normalized yet. A skip on either leg skips the
// cell; real failures win over skips.
func (r *runner) normalized(v Variant, workload string) (float64, sim.RunResult, error) {
	res, runErr := r.run(v, workload)
	base, baseErr := r.baseline(workload)
	if err := realError(runErr, baseErr); err != nil {
		return 0, sim.RunResult{}, err
	}
	if runErr != nil {
		return 0, sim.RunResult{}, runErr
	}
	if baseErr != nil {
		return 0, sim.RunResult{}, baseErr
	}
	if base.IPCSum <= 0 {
		return 0, res, fmt.Errorf("exp: zero baseline IPC for %s", workload)
	}
	return res.IPCSum / base.IPCSum, res, nil
}

// Runner is a shareable experiment session. Experiments run through the
// same Runner share its worker pool and its keyed run cache, so a
// driver running several figures back to back (cmd/tpracsim -exp all)
// never executes the same (variant, workload, scale) simulation twice.
type Runner struct {
	r *runner
}

// NewRunner returns a session for the given scale.
func NewRunner(scale Scale) *Runner { return &Runner{r: newRunner(scale)} }

// CachedRuns reports how many distinct simulations the session has
// executed (or has in flight) — the dedup observability counter.
func (s *Runner) CachedRuns() int { return s.r.cache.Len() }

// Fig10 runs Figure 10 within this session.
func (s *Runner) Fig10() (Fig10Result, error) { return runFig10(s.r) }

// Fig11 runs Figure 11 within this session.
func (s *Runner) Fig11() (SweepResult, error) { return runFig11(s.r) }

// Fig12 runs Figure 12 within this session.
func (s *Runner) Fig12() (SweepResult, error) { return runFig12(s.r) }

// Fig13 runs Figure 13 within this session.
func (s *Runner) Fig13() (SweepResult, error) { return runFig13(s.r) }

// Fig14 runs Figure 14 within this session.
func (s *Runner) Fig14() (SweepResult, error) { return runFig14(s.r) }

// Table5 runs Table 5 within this session.
func (s *Runner) Table5() (Table5Result, error) { return runTable5(s.r) }

// RFMpb runs the Section 7.2 extension within this session.
func (s *Runner) RFMpb() (RFMpbResult, error) { return runRFMpb(s.r) }

// Fig10Result is the main performance comparison at NRH 1024.
type Fig10Result struct {
	Workloads []string
	Classes   []trace.Class
	Variants  []string
	// Normalized[i][j] is workload i under variant j.
	Normalized  [][]float64
	GeomeanAll  []float64
	GeomeanHigh []float64
}

// Fig10Variants returns the paper's three compared configurations.
func Fig10Variants(nrh int) []Variant {
	return []Variant{
		{Name: "ABO-Only", Policy: sim.PolicyABOOnly, NRH: nrh},
		{Name: "ABO+ACB-RFM", Policy: sim.PolicyACB, NRH: nrh},
		{Name: "TPRAC", Policy: sim.PolicyTPRAC, NRH: nrh},
	}
}

// RunFig10 reproduces Figure 10: normalized performance of ABO-Only,
// ABO+ACB-RFM and TPRAC at NRH=1024 across the workload set.
func RunFig10(scale Scale) (Fig10Result, error) { return runFig10(newRunner(scale)) }

func runFig10(r *runner) (Fig10Result, error) {
	variants := Fig10Variants(1024)
	names := r.scale.workloads()
	res := Fig10Result{Workloads: names}
	for _, v := range variants {
		res.Variants = append(res.Variants, v.Name)
	}
	for _, name := range names {
		w, err := trace.Lookup(name)
		if err != nil {
			return res, err
		}
		res.Classes = append(res.Classes, w.Class)
	}
	if err := r.prefetchBaselines(names); err != nil {
		return res, err
	}
	res.Normalized = make([][]float64, len(names))
	for i := range res.Normalized {
		res.Normalized[i] = make([]float64, len(variants))
	}
	err := r.pool.Run(len(names)*len(variants), func(k int) error {
		i, j := k/len(variants), k%len(variants)
		n, _, err := r.normalized(variants[j], names[i])
		if err != nil {
			return ignoreSkip(err)
		}
		res.Normalized[i][j] = n
		return nil
	})
	if err != nil {
		return res, err
	}
	for j := range variants {
		var all, high []float64
		for i := range names {
			all = append(all, res.Normalized[i][j])
			if res.Classes[i] == trace.ClassHigh {
				high = append(high, res.Normalized[i][j])
			}
		}
		res.GeomeanAll = append(res.GeomeanAll, stats.Geomean(all))
		res.GeomeanHigh = append(res.GeomeanHigh, stats.Geomean(high))
	}
	return res, nil
}

func (r Fig10Result) table() *stats.Table {
	header := append([]string{"workload", "class"}, r.Variants...)
	t := &stats.Table{Header: header}
	for i, w := range r.Workloads {
		cells := []any{w, string(r.Classes[i])}
		for _, n := range r.Normalized[i] {
			cells = append(cells, n)
		}
		t.Add(cells...)
	}
	high := []any{"GEOMEAN(High)", ""}
	all := []any{"GEOMEAN(All)", ""}
	for j := range r.Variants {
		high = append(high, r.GeomeanHigh[j])
		all = append(all, r.GeomeanAll[j])
	}
	t.Add(high...)
	t.Add(all...)
	return t
}

// Render returns the human-readable report.
func (r Fig10Result) Render() string {
	return "Figure 10: normalized performance at NRH=1024 (1.0 = no-ABO baseline)\n" +
		r.table().String()
}

// CSV returns the machine-readable report.
func (r Fig10Result) CSV() string { return r.table().CSV() }

// SweepResult is the generic outcome of Figures 11-14: geometric-mean
// normalized performance per (x value, variant).
type SweepResult struct {
	Title    string
	XLabel   string
	XValues  []string
	Variants []string
	// Geomean[i][j] is x value i under variant j.
	Geomean [][]float64
}

// runSweep fans the whole (x, variant, workload) grid across the pool
// in one batch — every cell is an independent simulation — then reduces
// the geomeans serially, in grid order, once all cells are in place.
func runSweep(r *runner, title, xlabel string, xs []string, variants func(x int) []Variant, xvals []int) (SweepResult, error) {
	names := r.scale.workloads()
	res := SweepResult{Title: title, XLabel: xlabel, XValues: xs}
	grid := make([][]Variant, len(xvals))
	for i, x := range xvals {
		grid[i] = variants(x)
	}
	for _, v := range grid[0] {
		res.Variants = append(res.Variants, v.Name)
	}
	if err := r.prefetchBaselines(names); err != nil {
		return res, err
	}
	type cellRef struct{ xi, vj, wi int }
	var cells []cellRef
	ns := make([][][]float64, len(xvals))
	for xi := range grid {
		ns[xi] = make([][]float64, len(grid[xi]))
		for vj := range grid[xi] {
			ns[xi][vj] = make([]float64, len(names))
			for wi := range names {
				cells = append(cells, cellRef{xi, vj, wi})
			}
		}
	}
	err := r.pool.Run(len(cells), func(k int) error {
		c := cells[k]
		n, _, err := r.normalized(grid[c.xi][c.vj], names[c.wi])
		if err != nil {
			return ignoreSkip(err)
		}
		ns[c.xi][c.vj][c.wi] = n
		return nil
	})
	if err != nil {
		return res, err
	}
	for xi := range ns {
		row := make([]float64, len(ns[xi]))
		for vj := range ns[xi] {
			row[vj] = stats.Geomean(ns[xi][vj])
		}
		res.Geomean = append(res.Geomean, row)
	}
	return res, nil
}

func (r SweepResult) table() *stats.Table {
	t := &stats.Table{Header: append([]string{r.XLabel}, r.Variants...)}
	for i, x := range r.XValues {
		cells := []any{x}
		for _, g := range r.Geomean[i] {
			cells = append(cells, g)
		}
		t.Add(cells...)
	}
	return t
}

// Render returns the human-readable report.
func (r SweepResult) Render() string { return r.Title + "\n" + r.table().String() }

// CSV returns the machine-readable report.
func (r SweepResult) CSV() string { return r.table().CSV() }

// RunFig11 reproduces Figure 11: sensitivity to the PRAC level at NRH=1024.
func RunFig11(scale Scale) (SweepResult, error) { return runFig11(newRunner(scale)) }

func runFig11(r *runner) (SweepResult, error) {
	return runSweep(r,
		"Figure 11: normalized performance across PRAC levels (NRH=1024)",
		"PRAC-level",
		[]string{"PRAC-1", "PRAC-2", "PRAC-4"},
		func(level int) []Variant {
			vs := Fig10Variants(1024)
			for i := range vs {
				vs[i].PRACLevel = level
			}
			return vs
		},
		[]int{1, 2, 4},
	)
}

// RunFig12 reproduces Figure 12: sensitivity to targeted-refresh rate.
func RunFig12(scale Scale) (SweepResult, error) { return runFig12(newRunner(scale)) }

func runFig12(r *runner) (SweepResult, error) {
	return runSweep(r,
		"Figure 12: TPRAC with targeted refreshes (NRH=1024)",
		"TREF-per-tREFI",
		[]string{"none", "1/4", "1/3", "1/2", "1/1"},
		func(every int) []Variant {
			v := Variant{Name: "TPRAC", Policy: sim.PolicyTPRAC, NRH: 1024}
			if every > 0 {
				v.Name = fmt.Sprintf("TPRAC+TREF/%d", every)
				v.TREFEvery = every
				v.SkipOnTREF = true
			}
			return []Variant{v}
		},
		[]int{0, 4, 3, 2, 1},
	)
}

// RunFig13 reproduces Figure 13: sensitivity to the RowHammer threshold.
func RunFig13(scale Scale) (SweepResult, error) { return runFig13(newRunner(scale)) }

func runFig13(r *runner) (SweepResult, error) {
	return runSweep(r,
		"Figure 13: normalized performance across RowHammer thresholds",
		"NRH",
		[]string{"128", "256", "512", "1024", "2048", "4096"},
		func(nrh int) []Variant {
			vs := Fig10Variants(nrh)
			vs = append(vs,
				Variant{Name: "TPRAC+TREF/4", Policy: sim.PolicyTPRAC, NRH: nrh, TREFEvery: 4, SkipOnTREF: true},
				Variant{Name: "TPRAC+TREF/1", Policy: sim.PolicyTPRAC, NRH: nrh, TREFEvery: 1, SkipOnTREF: true},
			)
			return vs
		},
		[]int{128, 256, 512, 1024, 2048, 4096},
	)
}

// RunFig14 reproduces Figure 14: activation-counter reset sensitivity.
func RunFig14(scale Scale) (SweepResult, error) { return runFig14(newRunner(scale)) }

func runFig14(r *runner) (SweepResult, error) {
	return runSweep(r,
		"Figure 14: TPRAC with and without per-tREFW counter reset",
		"NRH",
		[]string{"128", "256", "512", "1024", "2048", "4096"},
		func(nrh int) []Variant {
			return []Variant{
				{Name: "TPRAC", Policy: sim.PolicyTPRAC, NRH: nrh},
				{Name: "TPRAC-NoReset", Policy: sim.PolicyTPRAC, NRH: nrh, NoReset: true},
				{Name: "TPRAC+TREF/1", Policy: sim.PolicyTPRAC, NRH: nrh, TREFEvery: 1, SkipOnTREF: true},
				{Name: "TPRAC-NoReset+TREF/1", Policy: sim.PolicyTPRAC, NRH: nrh, NoReset: true, TREFEvery: 1, SkipOnTREF: true},
			}
		},
		[]int{128, 256, 512, 1024, 2048, 4096},
	)
}

// Table5Row is one row of the energy-overhead table.
type Table5Row struct {
	NRH              int
	MitigationPct    float64
	NonMitigationPct float64
	TotalPct         float64
}

// Table5Result is the paper's Table 5.
type Table5Result struct {
	Rows []Table5Row
}

// RunTable5 reproduces Table 5: TPRAC's energy overhead versus the no-ABO
// baseline, split into mitigation (RFM) and non-mitigation (execution time)
// energy, across RowHammer thresholds.
func RunTable5(scale Scale) (Table5Result, error) { return runTable5(newRunner(scale)) }

func runTable5(r *runner) (Table5Result, error) {
	params := energy.DefaultParams()
	names := r.scale.workloads()
	nrhs := []int{128, 256, 512, 1024, 2048, 4096}
	var res Table5Result
	if err := r.prefetchBaselines(names); err != nil {
		return res, err
	}
	type overheads struct{ mit, non, tot float64 }
	cells := make([][]overheads, len(nrhs))
	for i := range cells {
		cells[i] = make([]overheads, len(names))
	}
	err := r.pool.Run(len(nrhs)*len(names), func(k int) error {
		ni, wi := k/len(names), k%len(names)
		v := Variant{Name: "TPRAC", Policy: sim.PolicyTPRAC, NRH: nrhs[ni]}
		name := names[wi]
		// Both legs always attempted; see normalized for the shard rationale.
		run, runErr := r.run(v, name)
		base, baseErr := r.baseline(name)
		if err := realError(runErr, baseErr); err != nil {
			return err
		}
		if runErr != nil || baseErr != nil {
			return nil
		}
		cfg, err := r.configure(v, name)
		if err != nil {
			return err
		}
		o, err := energy.CompareRuns(params, base.DRAM, run.DRAM,
			cfg.DRAM.Org.Ranks, base.MeasuredTime, run.MeasuredTime)
		if err != nil {
			return err
		}
		cells[ni][wi] = overheads{o.MitigationPct, o.NonMitigationPct, o.TotalPct}
		return nil
	})
	if err != nil {
		return res, err
	}
	for ni, nrh := range nrhs {
		mit := make([]float64, len(names))
		non := make([]float64, len(names))
		tot := make([]float64, len(names))
		for wi := range names {
			mit[wi] = cells[ni][wi].mit
			non[wi] = cells[ni][wi].non
			tot[wi] = cells[ni][wi].tot
		}
		res.Rows = append(res.Rows, Table5Row{
			NRH:              nrh,
			MitigationPct:    stats.Mean(mit),
			NonMitigationPct: stats.Mean(non),
			TotalPct:         stats.Mean(tot),
		})
	}
	return res, nil
}

func (r Table5Result) table() *stats.Table {
	t := &stats.Table{Header: []string{"NRH", "Mitigation(RFM)%", "Non-Mitigation(ExecTime)%", "Total%"}}
	for _, row := range r.Rows {
		t.Add(row.NRH, row.MitigationPct, row.NonMitigationPct, row.TotalPct)
	}
	return t
}

// Render returns the human-readable report.
func (r Table5Result) Render() string {
	return "Table 5: TPRAC energy overhead vs no-ABO baseline\n" + r.table().String()
}

// CSV returns the machine-readable report.
func (r Table5Result) CSV() string { return r.table().CSV() }

// TBWindowFor exposes the solved TB-Window for a threshold, for reports.
func TBWindowFor(nrh int, reset bool) (ticks.T, error) {
	return analysis.DefaultParams().SolveWindow(nrh, reset, 0)
}
