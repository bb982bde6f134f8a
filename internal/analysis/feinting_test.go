package analysis

import (
	"fmt"
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
