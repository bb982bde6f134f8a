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

// unlimited is the budget FeintingTACT applies when it is given none.
const unlimited = int(^uint(0) >> 2)

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
		budget = unlimited
	}
	rounds, total, _ := feintingRounds(w, r1, budget)
	return rounds + min(w, budget-total)
}

// feintingRounds runs FeintingTACT's rounds for pool r1 (w >= 1, budget
// >= 1) and returns how many completed, their cumulative activations, and
// whether the budget, not the pool shrinking to the target, ended them.
func feintingRounds(w, r1, budget int) (rounds, total int, budgetStop bool) {
	for remaining := r1; remaining > 1; remaining = max(1, r1-total/w) {
		if total+remaining > budget {
			return rounds, total, true
		}
		total += remaining
		rounds++
	}
	return rounds, total, false
}

// OptR1 returns the smallest initial pool size that maximizes TACT:
// Equation (5)'s optimum under the per-tREFW budget with reset, or over
// every row of the bank without. The empirical attack uses it as its pool.
func (p Params) OptR1(window ticks.T, reset bool) int {
	_, pool := p.maxTACT(window, reset, true)
	return pool
}

// maxTACT returns the largest FeintingTACT over the pools 1..limit, where
// limit is RowsPerBank, capped by the budget B = MaxActsPerTREFW with
// reset (without reset there is no budget), and a pool that attains it:
// the smallest one if wantPool, which costs one more binary search. It is
// exact. Let w = ActsPerWindow, T_k(r) the total after k rounds of pool r
// and K(r) the rounds pool r runs without a budget (non-decreasing in r,
// see FeintingTACT). Two facts bound the search:
//
//   - (a) For r <= ra = min(limit, ⌊(B-1)/w⌋) the budget never stops the
//     rounds and the final window is whole, so TACT equals the unbudgeted
//     TACT, which is non-decreasing. The rounds stop once T >= (r-1)·w and
//     the last one starts below it, so with FeintingTACT's non-decreasing
//     g, T_K(r) <= g((r-1)·w - 1) = (r-1)·w + 1 and T_K(r) + w <= r·w + 1
//     <= B. The best pool on [1, ra] is ra; the smallest is found by
//     binary search.
//   - (b) T_k(r) is non-decreasing in r, because T + max(1, r - ⌊T/w⌋),
//     one more round, is non-decreasing in both T and r. So if the budget
//     ends pool r after k < K(r) rounds (T_{k+1}(r) > B), every larger
//     pool r' stops after at most k rounds, and after exactly k while
//     T_k(r') <= B. Along that run TACT = k + min(w, B - T_k(r')) cannot
//     rise, so only its first pool can set a new maximum, and the next run
//     starts at the first r' with T_k(r') > B, that is, the first pool
//     stopped within k-1 rounds: a monotone predicate, found by
//     galloping. No pool past r beats k - 1 + w, which ends the search.
//
// Above ra, a stop that is not the budget's needs (r-1)·w <= T_K(r) <= B,
// which leaves at most two pools; they are evaluated one by one. At the
// paper's device a reset TMax costs three recurrence runs and OptR1 under
// twenty.
func (p Params) maxTACT(window ticks.T, reset, wantPool bool) (tact, pool int) {
	budget, limit := unlimited, p.RowsPerBank
	if reset {
		budget = p.MaxActsPerTREFW()
		limit = min(limit, budget)
	}
	w := p.ActsPerWindow(window)
	if w <= 0 || limit < 1 {
		return p.FeintingTACT(window, 1, budget), 1
	}
	ra := min(limit, (budget-1)/w)
	best, pool := 0, 1
	if ra >= 1 {
		best, pool = p.FeintingTACT(window, ra, budget), ra
	}
	for r := ra + 1; r <= limit; {
		k, total, budgetStop := feintingRounds(w, r, budget)
		if v := k + min(w, budget-total); v > best {
			best, pool = v, r
		}
		if !budgetStop {
			r++
			continue
		}
		if k-1+w <= best {
			break
		}
		// Gallop to the first pool the budget stops within k-1 rounds.
		over := func(x int) bool {
			rounds, _, _ := feintingRounds(w, x, budget)
			return rounds < k
		}
		lo, hi := r, r+1
		for hi <= limit && !over(hi) {
			lo, hi = hi, r+2*(hi-r)
		}
		hi = min(hi, limit+1)
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; over(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		r = hi
	}
	if wantPool && pool == ra {
		lo, hi := 0, ra // TACT(hi) = best; TACT(lo) < best
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; p.FeintingTACT(window, mid, budget) >= best {
				hi = mid
			} else {
				lo = mid
			}
		}
		pool = hi
	}
	return best, pool
}

// TMax is the worst-case activations to the target row for a TB-Window,
// with or without per-tREFW counter reset (the paper's Figure 7). Without
// reset, TACT is non-decreasing in the pool size (see FeintingTACT), so
// the largest pool, every row of the bank, attains the maximum; with
// reset, maxTACT searches the pools exactly.
func (p Params) TMax(window ticks.T, reset bool) int {
	if !reset {
		return p.FeintingTACT(window, p.RowsPerBank, 0)
	}
	tact, _ := p.maxTACT(window, true, false)
	return tact
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
	// With reset, TACT = rounds + min(w, B - total) <= B, so TMax never
	// reaches an NBO above B and no window would bound the search.
	if b := p.MaxActsPerTREFW(); reset && nbo > b {
		return 0, fmt.Errorf("analysis: NBO %d exceeds the %d activations one tREFW allows: with counter reset every TB-Window is safe", nbo, b)
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
