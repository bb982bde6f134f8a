package sim

import (
	"fmt"
	"time"

	"pracsim/internal/cache"
	"pracsim/internal/cpu"
	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// PolicyKind selects the mitigation policy a System runs with.
type PolicyKind int

const (
	// PolicyABOOnly relies purely on the Alert Back-Off protocol.
	PolicyABOOnly PolicyKind = iota
	// PolicyACB adds JEDEC Activation-Based RFMs at the BAT threshold.
	PolicyACB
	// PolicyTPRAC is the paper's Timing-Based RFM defense.
	PolicyTPRAC
	// PolicyNone disables proactive RFMs and the ABO protocol entirely —
	// the paper's normalization baseline (PRAC counters without Alerts).
	PolicyNone
	// PolicyTPRACpb is the Section 7.2 extension: Timing-Based RFMs
	// issued as per-bank RFMpb commands rotating through the banks.
	PolicyTPRACpb
)

// String names the policy for experiment output.
func (k PolicyKind) String() string {
	switch k {
	case PolicyABOOnly:
		return "ABO-Only"
	case PolicyACB:
		return "ABO+ACB-RFM"
	case PolicyTPRAC:
		return "TPRAC"
	case PolicyNone:
		return "Baseline"
	case PolicyTPRACpb:
		return "TPRAC-pb"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// SystemConfig assembles the paper's Table 3 machine.
type SystemConfig struct {
	Cores int
	Core  cpu.Config

	L1DSizeKB, L1DWays int
	L2SizeKB, L2Ways   int
	LLCSizeKB, LLCWays int
	L1DLatency         ticks.T
	L2Latency          ticks.T
	LLCLatency         ticks.T
	MSHRsPerCore       int
	Prefetch           bool

	DRAM dram.Config
	Ctrl memctrl.Config

	Policy      PolicyKind
	TBWindow    ticks.T // TPRAC: TB-RFM interval
	SkipOnTREF  bool    // TPRAC: co-design with targeted refreshes
	BAT         int     // ACB: bank activation threshold
	MOPGroup    int     // consecutive lines per bank visit
	MapperXOR   bool
	Workload    string // catalog name; all cores run copies (homogeneous mix)
	WorkloadMix []string

	// Clock selects the clocking model; the zero value is ClockDemand
	// (idle-cycle elision). Results are bit-identical across clockings.
	Clock Clocking
}

// DefaultSystemConfig returns the paper's evaluated system at a given
// Back-Off threshold: 4 cores at 4 GHz, 48KB/512KB/8MB caches, MOP mapping,
// FR-FCFS cap 4, 32Gb DDR5-8000B.
func DefaultSystemConfig(nbo int) SystemConfig {
	return SystemConfig{
		Cores:        4,
		Core:         cpu.DefaultConfig(),
		L1DSizeKB:    48,
		L1DWays:      12,
		L2SizeKB:     512,
		L2Ways:       8,
		LLCSizeKB:    8 * 1024,
		LLCWays:      16,
		L1DLatency:   5 * cpu.CyclePeriod,
		L2Latency:    10 * cpu.CyclePeriod,
		LLCLatency:   20 * cpu.CyclePeriod,
		MSHRsPerCore: 64,
		Prefetch:     true,
		DRAM:         dram.DefaultConfig(nbo),
		Ctrl:         memctrl.DefaultConfig(),
		Policy:       PolicyNone,
		MOPGroup:     4,
		Workload:     "433.milc",
	}
}

// System is an assembled simulated machine.
type System struct {
	Engine *Engine
	Cores  []*cpu.Core
	L1s    []*cache.Cache
	L2s    []*cache.Cache
	LLC    *cache.Cache
	Ctrl   *memctrl.Controller
	Mod    *dram.Module

	cfg       SystemConfig
	elide     bool
	ctrlClock *ControllerClock
}

// memAdapter bridges the LLC to the memory controller, buffering refused
// writebacks and retrying them each controller cycle.
type memAdapter struct {
	ctrl      *memctrl.Controller
	pendingWB []uint64
}

func (a *memAdapter) Fetch(line uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	return a.ctrl.Enqueue(&memctrl.Request{Line: line, Done: to, Tag: tag}, now)
}

func (a *memAdapter) WriteBack(line uint64, now ticks.T) bool {
	if len(a.pendingWB) == 0 && a.ctrl.Enqueue(&memctrl.Request{Line: line, Write: true}, now) {
		return true
	}
	a.pendingWB = append(a.pendingWB, line)
	return true
}

func (a *memAdapter) retry(now ticks.T) {
	for len(a.pendingWB) > 0 {
		if !a.ctrl.Enqueue(&memctrl.Request{Line: a.pendingWB[0], Write: true}, now) {
			return
		}
		a.pendingWB = a.pendingWB[1:]
	}
}

// NewSystem builds and wires a System.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: core count must be positive, got %d", cfg.Cores)
	}
	dcfg := cfg.DRAM
	if cfg.Policy == PolicyNone {
		dcfg.PRAC.Enabled = true // counters still run; Alerts do not
		dcfg.PRAC.NBO = 1 << 30  // effectively never alert
	}
	mod, err := dram.New(dcfg)
	if err != nil {
		return nil, err
	}
	mapper, err := memctrl.NewMOPMapper(dcfg.Org, cfg.MOPGroup, cfg.MapperXOR)
	if err != nil {
		return nil, err
	}
	policy, err := buildPolicy(cfg, dcfg)
	if err != nil {
		return nil, err
	}
	ctrl, err := memctrl.New(cfg.Ctrl, mod, mapper, policy)
	if err != nil {
		return nil, err
	}

	eng := NewEngine()
	adapter := &memAdapter{ctrl: ctrl}
	lineBytes := dcfg.Org.LineBytes

	llc, err := cache.New(cache.Config{
		Name:    "LLC",
		Sets:    cache.SetsFor(cfg.LLCSizeKB*cache.KB, cfg.LLCWays, lineBytes),
		Ways:    cfg.LLCWays,
		Latency: cfg.LLCLatency,
		Repl:    cache.SRRIP,
		MSHRs:   cfg.MSHRsPerCore * cfg.Cores,
	}, adapter)
	if err != nil {
		return nil, err
	}

	sys := &System{
		Engine: eng, LLC: llc, Ctrl: ctrl, Mod: mod,
		cfg:   cfg,
		elide: cfg.Clock != ClockPerCycle,
	}

	names := cfg.WorkloadMix
	if len(names) == 0 {
		names = make([]string, cfg.Cores)
		for i := range names {
			names[i] = cfg.Workload
		}
	}
	if len(names) != cfg.Cores {
		return nil, fmt.Errorf("sim: workload mix has %d entries for %d cores", len(names), cfg.Cores)
	}

	lines := mapper.Lines()
	for i := 0; i < cfg.Cores; i++ {
		l2, err := cache.New(cache.Config{
			Name:    fmt.Sprintf("L2.%d", i),
			Sets:    cache.SetsFor(cfg.L2SizeKB*cache.KB, cfg.L2Ways, lineBytes),
			Ways:    cfg.L2Ways,
			Latency: cfg.L2Latency,
			Repl:    cache.LRU,
			MSHRs:   cfg.MSHRsPerCore,
		}, llc)
		if err != nil {
			return nil, err
		}
		l1, err := cache.New(cache.Config{
			Name:    fmt.Sprintf("L1D.%d", i),
			Sets:    cache.SetsFor(cfg.L1DSizeKB*cache.KB, cfg.L1DWays, lineBytes),
			Ways:    cfg.L1DWays,
			Latency: cfg.L1DLatency,
			Repl:    cache.LRU,
			MSHRs:   16,
		}, l2)
		if err != nil {
			return nil, err
		}
		if cfg.Prefetch {
			if err := l1.AttachIPStride(256, 2); err != nil {
				return nil, err
			}
		}
		stream, err := trace.NewWorkloadStream(names[i])
		if err != nil {
			return nil, err
		}
		offset := uint64(i) * (lines / uint64(cfg.Cores))
		core, err := cpu.New(i, cfg.Core, stream, l1, offset, lines)
		if err != nil {
			return nil, err
		}
		sys.Cores = append(sys.Cores, core)
		sys.L1s = append(sys.L1s, l1)
		sys.L2s = append(sys.L2s, l2)
	}

	// The controller clock domain: the adapter's writeback retry runs
	// before each controller tick, and buffered writebacks veto parking.
	sys.ctrlClock = NewControllerClock(eng, ctrl, func(now ticks.T) bool {
		adapter.retry(now)
		return len(adapter.pendingWB) == 0
	}, cfg.Clock)
	for _, core := range sys.Cores {
		core.SetRetrySlot(sys.ctrlClock.RetrySlot)
	}
	return sys, nil
}

func buildPolicy(cfg SystemConfig, dcfg dram.Config) (mitigation.Policy, error) {
	switch cfg.Policy {
	case PolicyABOOnly, PolicyNone:
		return mitigation.NewABOOnly(), nil
	case PolicyACB:
		return mitigation.NewACB(dcfg.Org.Banks(), cfg.BAT)
	case PolicyTPRAC:
		return mitigation.NewTPRAC(cfg.TBWindow, cfg.SkipOnTREF)
	case PolicyTPRACpb:
		return mitigation.NewTPRACPerBank(cfg.TBWindow, dcfg.Org.Banks())
	default:
		return nil, fmt.Errorf("sim: unknown policy %d", int(cfg.Policy))
	}
}

// Telemetry describes how a simulation executed — wall-clock cost,
// simulated-time throughput and idle-elision wins. It is the one part of
// a RunResult that legitimately varies between clockings, worker counts
// and machines; DiffResults ignores it.
type Telemetry struct {
	WallNS      int64   // wall-clock duration of the whole Run (warmup + measured)
	SimTicks    ticks.T // simulated time the Run advanced
	TicksPerSec float64 // simulated ticks per wall-clock second
	EngineSteps int64   // engine timesteps actually processed
	// ElidedCoreCycles and ElidedCtrlCycles count cycles that
	// demand-driven clocking accounted without simulating (zero under
	// ClockPerCycle).
	ElidedCoreCycles int64
	ElidedCtrlCycles int64
	Clock            string
}

// ElidedCycles reports the total skipped-cycle count across clock domains.
func (t Telemetry) ElidedCycles() int64 { return t.ElidedCoreCycles + t.ElidedCtrlCycles }

// RunResult summarizes one measured simulation interval.
type RunResult struct {
	Policy       string
	Cycles       int64
	Instructions int64
	IPCSum       float64 // sum of per-core IPCs
	PerCoreIPC   []float64
	RBMPKI       float64
	Ctrl         memctrl.Stats
	DRAM         dram.Stats
	MeasuredTime ticks.T
	Telemetry    Telemetry
}

// Run executes warmup then measured instructions on every core and reports
// measured-interval statistics. Cores that finish early keep their final
// stats; the run ends when every core has retired its measured budget.
func (s *System) Run(warmup, measured int64) (RunResult, error) {
	if measured <= 0 {
		return RunResult{}, fmt.Errorf("sim: measured instruction budget must be positive")
	}
	deadline := ticks.FromMS(500)

	wallStart := time.Now()
	runStart := s.Engine.Now()
	stepsBase := s.Engine.Steps()
	ctrlElidedBase := s.ctrlClock.Elided(runStart)
	var coreElided int64

	target := warmup
	if target > 0 {
		if err := s.runUntilRetired(target, deadline); err != nil {
			return RunResult{}, err
		}
	}
	ctrlBase := s.Ctrl.Stats()
	dramBase := s.Mod.Stats()
	startTime := s.Engine.Now()
	for _, c := range s.Cores {
		coreElided += c.Stats().ElidedCycles
		c.ResetStats()
	}

	if err := s.runUntilRetired(measured, deadline); err != nil {
		return RunResult{}, err
	}

	res := RunResult{
		Policy:       s.Ctrl.Policy().Name(),
		MeasuredTime: s.Engine.Now() - startTime,
		Ctrl:         diffCtrl(s.Ctrl.Stats(), ctrlBase),
		DRAM:         diffDRAM(s.Mod.Stats(), dramBase),
	}
	end := s.Engine.Now()
	for _, c := range s.Cores {
		coreElided += c.Stats().ElidedCycles
	}
	res.Telemetry = Telemetry{
		WallNS:           time.Since(wallStart).Nanoseconds(),
		SimTicks:         end - runStart,
		EngineSteps:      s.Engine.Steps() - stepsBase,
		ElidedCoreCycles: coreElided,
		ElidedCtrlCycles: s.ctrlClock.Elided(end) - ctrlElidedBase,
		Clock:            s.cfg.Clock.String(),
	}
	if secs := float64(res.Telemetry.WallNS) / 1e9; secs > 0 {
		res.Telemetry.TicksPerSec = float64(res.Telemetry.SimTicks) / secs
	}
	for _, c := range s.Cores {
		st := c.Stats()
		res.Cycles += st.Cycles
		res.Instructions += st.Instructions
		ipc := st.IPC()
		res.PerCoreIPC = append(res.PerCoreIPC, ipc)
		res.IPCSum += ipc
	}
	if res.Instructions > 0 {
		res.RBMPKI = float64(res.Ctrl.RowMisses) / (float64(res.Instructions) / 1000)
	}
	return res, nil
}

// runUntilRetired ticks all cores until each has retired at least budget
// instructions beyond its current count. Each core gets its own ticker
// (registered in core order, so same-cycle ticks keep the classic
// controller-then-cores, core-0-first sequence); under demand-driven
// clocking a core whose NextWork lies beyond the next cycle is deferred
// to that time, or parked entirely until the load blocking its ROB head
// completes. Skipped cycles are credited inside cpu.Tick, so core
// statistics are bit-identical with per-cycle ticking.
func (s *System) runUntilRetired(budget int64, deadline ticks.T) error {
	start := s.Engine.Now()
	active := len(s.Cores)
	tickers := make([]*Ticker, len(s.Cores))
	for i, c := range s.Cores {
		i, c := i, c
		target := c.Stats().Instructions + budget
		c.SyncClock(start)
		tickers[i] = s.Engine.AddTicker(cpu.CyclePeriod, start, func(now ticks.T) {
			c.Tick(now)
			if c.Stats().Instructions >= target {
				// Done: stop ticking this core for the rest of the phase.
				s.Engine.RemoveTicker(tickers[i])
				active--
				if active == 0 {
					s.Engine.Stop()
				}
				return
			}
			if !s.elide {
				return
			}
			if next := c.NextWork(now); next > now+cpu.CyclePeriod {
				if next == ticks.Never {
					s.Engine.PauseTicker(tickers[i])
				} else {
					s.Engine.RescheduleTicker(tickers[i], next)
				}
			}
		})
		if s.elide {
			c.SetWaker(func(at ticks.T) {
				// The ticker's own paused flag is the park state:
				// RescheduleTicker clears it, and a removed (done)
				// ticker is never paused, so stale wakes no-op.
				if tickers[i].paused {
					s.Engine.RescheduleTicker(tickers[i], at)
				}
			})
		}
	}
	s.Engine.Run(start + deadline)
	for i := range tickers {
		s.Engine.RemoveTicker(tickers[i])
		s.Cores[i].SetWaker(nil)
	}
	if active > 0 {
		return fmt.Errorf("sim: cores did not retire %d instructions within %v", budget, deadline)
	}
	return nil
}

func diffCtrl(a, b memctrl.Stats) memctrl.Stats {
	return memctrl.Stats{
		Reads:        a.Reads - b.Reads,
		Writes:       a.Writes - b.Writes,
		RowHits:      a.RowHits - b.RowHits,
		RowMisses:    a.RowMisses - b.RowMisses,
		ABORFMs:      a.ABORFMs - b.ABORFMs,
		PolicyRFMs:   a.PolicyRFMs - b.PolicyRFMs,
		Refreshes:    a.Refreshes - b.Refreshes,
		TREFs:        a.TREFs - b.TREFs,
		ReadLatency:  a.ReadLatency - b.ReadLatency,
		WriteForward: a.WriteForward - b.WriteForward,
	}
}

func diffDRAM(a, b dram.Stats) dram.Stats {
	return dram.Stats{
		ACTs:            a.ACTs - b.ACTs,
		PREs:            a.PREs - b.PREs,
		RDs:             a.RDs - b.RDs,
		WRs:             a.WRs - b.WRs,
		REFs:            a.REFs - b.REFs,
		RFMs:            a.RFMs - b.RFMs,
		TREFMitigations: a.TREFMitigations - b.TREFMitigations,
		MitigatedRows:   a.MitigatedRows - b.MitigatedRows,
		AlertsAsserted:  a.AlertsAsserted - b.AlertsAsserted,
		CounterResets:   a.CounterResets - b.CounterResets,
	}
}
