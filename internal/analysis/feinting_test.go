package analysis

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pracsim/internal/dram"
	"pracsim/internal/ticks"
)

func TestMaxActsPerTREFW(t *testing.T) {
	p := DefaultParams()
	got := p.MaxActsPerTREFW()
	// The paper quotes about 550K for the 32Gb DDR5-8000B device.
	if got < 500_000 || got > 620_000 {
		t.Fatalf("MAXACT(tREFW) = %d, want about 550K", got)
	}
}

func TestActsPerWindow(t *testing.T) {
	p := DefaultParams()
	if got := p.ActsPerWindow(p.TREFI); got != 75 {
		t.Fatalf("ACTs per 1 tREFI window = %d, want 75 (3900ns/52ns)", got)
	}
	if got := p.ActsPerWindow(p.TREFI / 4); got != 18 {
		t.Fatalf("ACTs per 0.25 tREFI = %d, want 18", got)
	}
}

func TestTMaxMonotoneInWindow(t *testing.T) {
	p := DefaultParams()
	prev := 0
	for _, f := range []float64{0.25, 0.5, 1, 2, 4} {
		w := ticks.T(f * float64(p.TREFI))
		v := p.TMax(w, true)
		if v <= prev {
			t.Fatalf("TMax(%v tREFI) = %d, not above previous %d", f, v, prev)
		}
		prev = v
	}
}

func TestNoResetWorseThanReset(t *testing.T) {
	p := DefaultParams()
	for _, f := range []float64{0.25, 0.5, 1, 2, 4} {
		w := ticks.T(f * float64(p.TREFI))
		reset := p.TMax(w, true)
		noReset := p.TMax(w, false)
		if noReset < reset {
			t.Errorf("window %.2f tREFI: TMax without reset (%d) below with reset (%d)", f, noReset, reset)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	pts := DefaultParams().Fig7()
	if len(pts) != 6 {
		t.Fatalf("Fig7 has %d points, want 6", len(pts))
	}
	// The paper's Figure 7 magnitudes: at 1 tREFI, TMAX is in the
	// hundreds (572 reset / 736 no-reset in the paper; our literal
	// Equations 2-5 land within ~1.4x), and at 4 tREFI in the thousands.
	var at1, at4 Fig7Point
	for _, pt := range pts {
		switch pt.WindowTREFI {
		case 1:
			at1 = pt
		case 4:
			at4 = pt
		}
	}
	if at1.WithReset < 300 || at1.WithReset > 1300 {
		t.Errorf("TMax(1 tREFI, reset) = %d, want same order as paper's 572", at1.WithReset)
	}
	if at4.WithReset < 1200 || at4.WithReset > 5200 {
		t.Errorf("TMax(4 tREFI, reset) = %d, want same order as paper's 2138", at4.WithReset)
	}
	if at4.NoReset < at4.WithReset {
		t.Errorf("no-reset TMax %d below reset %d at 4 tREFI", at4.NoReset, at4.WithReset)
	}
}

func TestSolveWindowProtects(t *testing.T) {
	p := DefaultParams()
	for _, nbo := range []int{128, 256, 512, 1024, 2048, 4096} {
		w, err := p.SolveWindow(nbo, true, 0)
		if err != nil {
			t.Fatalf("SolveWindow(%d): %v", nbo, err)
		}
		if got := p.TMax(w, true); got >= nbo {
			t.Errorf("NBO %d: solved window %v has TMax %d >= NBO", nbo, w, got)
		}
		// One step wider must break the bound (maximality).
		step := p.TREFI / 20
		if got := p.TMax(w+step, true); got < nbo {
			t.Errorf("NBO %d: window %v is not maximal (TMax(+step)=%d)", nbo, w, got)
		}
	}
}

func TestSolveWindowGrowsWithNBO(t *testing.T) {
	p := DefaultParams()
	prev := ticks.T(0)
	for _, nbo := range []int{128, 512, 2048} {
		w, err := p.SolveWindow(nbo, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if w <= prev {
			t.Fatalf("window for NBO %d (%v) not above previous (%v)", nbo, w, prev)
		}
		prev = w
	}
}

func TestSolveWindowPaperAnchors(t *testing.T) {
	// The paper configures roughly 1.6 tREFI at NRH=1024 and about 1us
	// at NRH=128. Our literal equations should land within 2x of both.
	p := DefaultParams()
	w1024, err := p.SolveWindow(1024, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(w1024) / float64(p.TREFI)
	if ratio < 0.5 || ratio > 3.2 {
		t.Errorf("TB-Window(NBO=1024) = %.2f tREFI, want same order as paper's 1.6", ratio)
	}
	w128, err := p.SolveWindow(128, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w128.NS() < 300 || w128.NS() > 4000 {
		t.Errorf("TB-Window(NBO=128) = %v, want same order as paper's ~1us", w128)
	}
}

func TestSolveWindowErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := p.SolveWindow(0, true, 0); err == nil {
		t.Error("NBO=0 accepted")
	}
	if _, err := p.SolveWindow(5, true, 0); err == nil {
		t.Error("unprotectable NBO accepted")
	}
	bad := p
	bad.TRC = 0
	if _, err := bad.SolveWindow(1024, true, 0); err == nil {
		t.Error("invalid params accepted")
	}
	// An NBO above the per-tREFW budget is unreachable with reset: an
	// error, not an endless search for an unsafe window.
	scaled := p
	scaled.TREFW = ticks.FromMS(2)
	if _, err := scaled.SolveWindow(scaled.MaxActsPerTREFW()+1, true, 0); err == nil {
		t.Error("NBO above MAXACT(tREFW) accepted with reset")
	}
	if _, err := scaled.SolveWindow(scaled.MaxActsPerTREFW(), true, 0); err != nil {
		t.Errorf("NBO = MAXACT(tREFW): %v", err)
	}
}

// Property: TACT never exceeds the pool-1 rounds plus one full window, and
// is always at least one window's worth of activations.
func TestFeintingTACTBoundsProperty(t *testing.T) {
	p := DefaultParams()
	prop := func(wRaw uint8, r1Raw uint16) bool {
		w := ticks.T(int(wRaw%100)+5) * p.TRC // 5..104 acts per window
		r1 := int(r1Raw%8192) + 1
		acts := p.ActsPerWindow(w)
		unbounded := p.FeintingTACT(w, r1, 0)
		if unbounded < acts {
			return false
		}
		// A budget can only reduce the attack's reach.
		bounded := p.FeintingTACT(w, r1, p.MaxActsPerTREFW())
		return bounded <= unbounded
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalFeintingStaysBelowNBO(t *testing.T) {
	// Scaled-down device keeps the attack affordable in a unit test:
	// a short refresh window bounds the attack budget.
	dcfg := dram.DefaultConfig(256)
	dcfg.Org.Ranks = 1
	dcfg.Org.BankGroups = 2
	dcfg.Org.BanksPerGroup = 2
	dcfg.Org.Rows = 4096
	dcfg.Timing.TREFW = ticks.FromMS(1)
	p := ParamsFromDRAM(dcfg)
	window, err := p.SolveWindow(dcfg.PRAC.NBO, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEmpiricalFeinting(EmpiricalConfig{
		DRAM:   dcfg,
		Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alerts != 0 {
		t.Fatalf("solved window %v: Feinting raised %d alerts", window, res.Alerts)
	}
	if res.TargetMaxActs >= uint32(dcfg.PRAC.NBO) {
		t.Fatalf("target reached %d activations, NBO is %d", res.TargetMaxActs, dcfg.PRAC.NBO)
	}
	if res.TBRFMs == 0 {
		t.Fatal("no TB-RFMs issued during the attack")
	}
	if res.Rounds == 0 {
		t.Fatal("attack performed no rounds")
	}
}

func TestEmpiricalFeintingValidation(t *testing.T) {
	if _, err := RunEmpiricalFeinting(EmpiricalConfig{DRAM: dram.DefaultConfig(256)}); err == nil {
		t.Error("zero window accepted")
	}
}

// Property: without a budget, TACT is non-decreasing in the pool size —
// the lemma that lets TMax(·, false) skip OptR1's scan.
func TestFeintingTACTMonotoneInPoolProperty(t *testing.T) {
	p := DefaultParams()
	prop := func(wRaw, r1Raw uint32) bool {
		w := ticks.T(wRaw%700+1) * p.TRC // 1..700 acts per window
		r1 := int(r1Raw%(1<<17)) + 1     // 1..2^17
		return p.FeintingTACT(w, r1, 0) <= p.FeintingTACT(w, r1+1, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// tmaxByScan is the no-reset TMax as OptR1's pool-size scan computes it:
// a geometric sweep over 1..RowsPerBank, then a local refinement around
// the best candidate.
func tmaxByScan(p Params, window ticks.T) int {
	limit := p.RowsPerBank
	best, bestVal := 1, 0
	try := func(r int) {
		if v := p.FeintingTACT(window, r, 0); v > bestVal {
			best, bestVal = r, v
		}
	}
	for r := 1; r <= limit; r = r*5/4 + 1 {
		try(r)
	}
	try(limit)
	for r := max(best*4/5, 1); r <= best*5/4+1 && r <= limit; r++ {
		try(r)
	}
	return bestVal
}

// The closed-form no-reset TMax equals the scan on every window step of a
// scaled-down bank.
func TestTMaxNoResetMatchesScan(t *testing.T) {
	p := DefaultParams()
	p.RowsPerBank = 4096
	step := p.TREFI / 20
	for k := 1; k <= 200; k++ {
		w := ticks.T(k) * step
		if got, want := p.TMax(w, false), tmaxByScan(p, w); got != want {
			t.Errorf("window %v: TMax(no reset) = %d, scan = %d", w, got, want)
		}
	}
}

// fullScan widens the exhaustive-scan oracles from a strided sample to
// every default window and many more random devices (seconds, not
// milliseconds): go test ./internal/analysis -args -fullscan
var fullScan = flag.Bool("fullscan", false, "check the reset-bound TMax and OptR1 against the exhaustive pool scan at all 120 default windows and 20000 random devices")

// tmaxResetByScan is the reset-bound TMax and the smallest pool attaining
// it, by evaluating TACT for every pool 1..min(RowsPerBank,
// MaxActsPerTREFW).
func tmaxResetByScan(p Params, window ticks.T) (tact, pool int) {
	budget := p.MaxActsPerTREFW()
	pool = 1
	for r := 1; r <= min(p.RowsPerBank, budget); r++ {
		if v := p.FeintingTACT(window, r, budget); v > tact {
			tact, pool = v, r
		}
	}
	return tact, pool
}

// The reset-bound TMax and OptR1's pool equal the exhaustive scan at the
// default windows k·tREFI/20: every 12th k (k = 1, 13, ..., 109), or
// every k = 1..120 with -fullscan.
func TestTMaxResetMatchesScan(t *testing.T) {
	p := DefaultParams()
	step, stride := p.TREFI/20, 12
	if *fullScan {
		stride = 1
	}
	for k := 1; k <= 120; k += stride {
		w := ticks.T(k) * step
		tact, pool := tmaxResetByScan(p, w)
		if got := p.TMax(w, true); got != tact {
			t.Errorf("window %v: TMax(reset) = %d, scan = %d", w, got, tact)
		}
		if got := p.OptR1(w, true); got != pool {
			t.Errorf("window %v: OptR1(reset) = %d, scan's smallest argmax = %d", w, got, pool)
		}
	}
}

// randomSmallParams draws a device with at most 3000 rows per bank and a
// per-tREFW budget anywhere from a few activations to many times the
// bank (tREFW may be shorter than tREFI), so that the budget binds after
// a few rounds, after many, or never.
func randomSmallParams(rng *rand.Rand) Params {
	p := Params{
		TRC:         ticks.T(1 + rng.Intn(64)),
		TREFI:       ticks.T(100 + rng.Intn(4000)),
		RowsPerBank: 1 + rng.Intn(3000),
	}
	p.TRFC = ticks.T(rng.Int63n(int64(p.TREFI) * 3 / 4))
	p.TREFW = p.TREFI*ticks.T(rng.Intn(1<<rng.Intn(12))) + ticks.T(rng.Int63n(int64(p.TREFI)))
	return p
}

// Property: on random small devices and windows, the reset-bound TMax and
// OptR1 equal the exhaustive scan, and the no-reset OptR1 is the smallest
// pool reaching the no-reset TMax (TACT is non-decreasing there).
func TestMaxTACTMatchesScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 300
	if *fullScan {
		n = 20000
	}
	for i := 0; i < n; i++ {
		p := randomSmallParams(rng)
		if p.MaxActsPerTREFW() < 1 {
			continue
		}
		w := ticks.T(1+rng.Intn(512))*p.TRC + ticks.T(rng.Int63n(int64(p.TRC)))
		tact, pool := tmaxResetByScan(p, w)
		if got := p.TMax(w, true); got != tact {
			t.Fatalf("%+v window %v: TMax(reset) = %d, scan = %d", p, w, got, tact)
		}
		if got := p.OptR1(w, true); got != pool {
			t.Fatalf("%+v window %v: OptR1(reset) = %d, scan's smallest argmax = %d", p, w, got, pool)
		}
		top, r := p.TMax(w, false), p.OptR1(w, false)
		if p.FeintingTACT(w, r, 0) != top || (r > 1 && p.FeintingTACT(w, r-1, 0) == top) {
			t.Fatalf("%+v window %v: OptR1(no reset) = %d is not the smallest pool reaching %d", p, w, r, top)
		}
	}
}

// OptR1's pools at the solved TB-Windows. The scaled-tREFW (2 ms) rows are
// the pools `secanalysis -empirical` and examples/defensetuning attack
// with; the default-device rows are Figures 10-14's windows.
func TestOptR1Golden(t *testing.T) {
	scaled := DefaultParams()
	scaled.TREFW = ticks.FromMS(2)
	for _, tc := range []struct {
		p      Params
		window float64 // ns
		reset  bool
		pool   int
	}{
		{scaled, 390, true, 4476},
		{scaled, 780, true, 2256},
		{scaled, 1755, true, 1036},
		{scaled, 3900, true, 458},
		{scaled, 8970, true, 200},
		{scaled, 21255, true, 84},
		{scaled, 51675, true, 34},
		{DefaultParams(), 585, true, 48699},
		{DefaultParams(), 1170, true, 24415},
		{DefaultParams(), 2730, true, 10547},
		{DefaultParams(), 5850, true, 4899},
		{DefaultParams(), 12870, true, 2227},
		{DefaultParams(), 28470, true, 1005},
		{DefaultParams(), 390, false, 113960},
		{DefaultParams(), 975, false, 126584},
		{DefaultParams(), 2145, false, 128617},
		{DefaultParams(), 4290, false, 129808},
		{DefaultParams(), 8580, false, 131026},
		{DefaultParams(), 17160, false, 131034},
	} {
		if got := tc.p.OptR1(ticks.FromNS(tc.window), tc.reset); got != tc.pool {
			t.Errorf("OptR1(%vns, reset=%v) with tREFW %v = %d, want %d", tc.window, tc.reset, tc.p.TREFW, got, tc.pool)
		}
	}
}

// The solved TB-Windows of the paper's device, with and without counter
// reset. Figures 10-14 and Table 5 are configured from these.
func TestSolveWindowGolden(t *testing.T) {
	p := DefaultParams()
	for _, tc := range []struct {
		nbo            int
		reset, noReset float64 // ns
	}{
		{128, 585, 390},
		{256, 1170, 975},
		{512, 2730, 2145},
		{1024, 5850, 4290},
		{2048, 12870, 8580},
		{4096, 28470, 17160},
	} {
		for _, c := range []struct {
			reset bool
			want  float64
		}{{true, tc.reset}, {false, tc.noReset}} {
			got, err := p.SolveWindow(tc.nbo, c.reset, 0)
			if err != nil {
				t.Fatalf("SolveWindow(%d, reset=%v): %v", tc.nbo, c.reset, err)
			}
			if want := ticks.FromNS(c.want); got != want {
				t.Errorf("SolveWindow(%d, reset=%v) = %v, want %v", tc.nbo, c.reset, got, want)
			}
		}
	}
}

func BenchmarkSolveWindow(b *testing.B) {
	p := DefaultParams()
	for _, mode := range []struct {
		name  string
		reset bool
	}{{"reset", true}, {"noreset", false}} {
		for _, nbo := range []int{128, 256, 512, 1024, 2048, 4096} {
			b.Run(fmt.Sprintf("%s/nbo=%d", mode.name, nbo), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.SolveWindow(nbo, mode.reset, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
