// Package analysis implements the paper's Section 4.2 security analysis:
// the worst-case Feinting/Wave attack model (Equations 2–5), the theoretical
// maximum activations TMAX a target row can accumulate under TPRAC, and the
// TB-Window solver that configures TPRAC per RowHammer threshold. It also
// provides an empirical Feinting attack that validates the solved window
// against the live simulator.
package analysis

import (
	"fmt"

	"pracsim/internal/dram"
	"pracsim/internal/ticks"
)

// Params holds the device characteristics the analysis depends on.
type Params struct {
	TRC         ticks.T
	TREFI       ticks.T
	TREFW       ticks.T
	TRFC        ticks.T
	RowsPerBank int
}

// ParamsFromDRAM extracts analysis parameters from a device configuration.
func ParamsFromDRAM(cfg dram.Config) Params {
	return Params{
		TRC:         cfg.Timing.TRC,
		TREFI:       cfg.Timing.TREFI,
		TREFW:       cfg.Timing.TREFW,
		TRFC:        cfg.Timing.TRFC,
		RowsPerBank: cfg.Org.Rows,
	}
}

// DefaultParams returns the paper's 32 Gb DDR5-8000B analysis parameters.
func DefaultParams() Params { return ParamsFromDRAM(dram.DefaultConfig(1024)) }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.TRC <= 0 || p.TREFI <= 0 || p.TREFW <= 0 {
		return fmt.Errorf("analysis: non-positive timing in %+v", p)
	}
	if p.RowsPerBank <= 0 {
		return fmt.Errorf("analysis: non-positive rows per bank")
	}
	return nil
}

// MaxActsPerTREFW is MAXACT(tREFW): the activations that fit in one refresh
// window after refresh blackouts (about 550K for the paper's device).
func (p Params) MaxActsPerTREFW() int {
	refs := int64(p.TREFW / p.TREFI)
	usable := int64(p.TREFW) - refs*int64(p.TRFC)
	return int(usable / int64(p.TRC))
}

// ActsPerWindow is Equation (2): the activations that fit in one TB-Window.
func (p Params) ActsPerWindow(window ticks.T) int {
	return int(window / p.TRC)
}

// FeintingTACT runs the round recurrence of Equations (3) and (4) for an
// initial pool of r1 rows: each round activates every remaining row once,
// one TB-RFM retires the hottest row per ActsPerWindow activations
// (cumulative, Equation 3), and the final round devotes a whole window to
// the target. budget caps total attack activations (the per-tREFW limit
// when counters reset; pass 0 for unlimited). It returns the target row's
// total activations.
//
// With budget 0, TACT is non-decreasing in r1. Let w = ActsPerWindow and
// g(T) = T + r1 - ⌊T/w⌋, the cumulative total after one more round of
// pool r1. The run for pool r1+1, with its total shifted down by w,
// follows the same g but starts at -w instead of 0. g is non-decreasing
// for w >= 1, so the shifted run never overtakes the unshifted one and
// reaches the stop point T >= (r1-1)·w no sooner: at least as many rounds.
func (p Params) FeintingTACT(window ticks.T, r1, budget int) int {
	w := p.ActsPerWindow(window)
	if w <= 0 || r1 <= 0 {
		return 0
	}
	if budget <= 0 {
		budget = int(^uint(0) >> 2)
	}
	total := 0  // cumulative activations across all rounds
	rounds := 0 // completed feinting rounds; the target gains one per round
	remaining := r1
	for remaining > 1 && total+remaining <= budget {
		total += remaining
		rounds++
		remaining = r1 - total/w
		if remaining < 1 {
			remaining = 1
		}
	}
	final := w
	if left := budget - total; final > left {
		final = left
	}
	if final < 0 {
		final = 0
	}
	return rounds + final
}

// OptR1 finds the initial pool size maximizing TACT — Equation (5)'s
// optimum under the reset budget, or the paper's 1..128K sweep without
// reset. TACT(r1) is smooth, so a geometric sweep with local refinement
// replaces the exhaustive scan. The scan serves the reset bound and the
// empirical attack's pool size; TMax without reset needs no scan.
func (p Params) OptR1(window ticks.T, reset bool) int {
	budget := 0
	limit := p.RowsPerBank
	if reset {
		budget = p.MaxActsPerTREFW()
		if budget < limit {
			limit = budget
		}
	}
	best, bestVal := 1, 0
	var candidates []int
	for r := 1; r <= limit; r = r*5/4 + 1 {
		candidates = append(candidates, r)
	}
	candidates = append(candidates, limit)
	for _, r := range candidates {
		if v := p.FeintingTACT(window, r, budget); v > bestVal {
			best, bestVal = r, v
		}
	}
	for r := best * 4 / 5; r <= best*5/4+1 && r <= limit; r++ {
		if r < 1 {
			continue
		}
		if v := p.FeintingTACT(window, r, budget); v > bestVal {
			best, bestVal = r, v
		}
	}
	return best
}

// TMax is the worst-case activations to the target row for a TB-Window,
// with or without per-tREFW counter reset (the paper's Figure 7). Without
// reset, TACT is non-decreasing in the pool size (see FeintingTACT), so
// the largest pool, every row of the bank, attains the maximum OptR1
// would search for.
func (p Params) TMax(window ticks.T, reset bool) int {
	if !reset {
		return p.FeintingTACT(window, p.RowsPerBank, 0)
	}
	return p.FeintingTACT(window, p.OptR1(window, true), p.MaxActsPerTREFW())
}

// SolveWindow returns the largest TB-Window (a multiple of step) for which
// TMax stays strictly below nbo, i.e. no row can reach the Back-Off
// threshold between TB-RFMs even under the worst-case Feinting attack.
// It returns an error when even the smallest window cannot protect nbo.
func (p Params) SolveWindow(nbo int, reset bool, step ticks.T) (ticks.T, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if nbo <= 0 {
		return 0, fmt.Errorf("analysis: NBO must be positive, got %d", nbo)
	}
	if step <= 0 {
		step = p.TREFI / 20
	}
	if p.TMax(step, reset) >= nbo {
		return 0, fmt.Errorf("analysis: no TB-Window can keep TMAX below %d (even %v fails)", nbo, step)
	}
	// TMax grows monotonically with the window; binary search the
	// largest safe multiple of step.
	lo, hi := 1, int(4*p.TREFI/step)+1
	for p.TMax(ticks.T(hi)*step, reset) < nbo {
		hi *= 2
	}
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if p.TMax(ticks.T(mid)*step, reset) < nbo {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ticks.T(lo) * step, nil
}

// Fig7Point is one bar of the paper's Figure 7.
type Fig7Point struct {
	WindowTREFI float64
	Window      ticks.T
	WithReset   int
	NoReset     int
}

// Fig7 computes TMAX across the paper's TB-Window sweep.
func (p Params) Fig7() []Fig7Point {
	fractions := []float64{0.25, 0.5, 0.75, 1, 2, 4}
	out := make([]Fig7Point, 0, len(fractions))
	for _, f := range fractions {
		w := ticks.T(f * float64(p.TREFI))
		out = append(out, Fig7Point{
			WindowTREFI: f,
			Window:      w,
			WithReset:   p.TMax(w, true),
			NoReset:     p.TMax(w, false),
		})
	}
	return out
}
