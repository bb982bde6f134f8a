package exp

import (
	"strings"
	"testing"

	"pracsim/internal/analysis"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
)

// tinyScale keeps unit tests fast while exercising the full pipeline.
func tinyScale() Scale {
	return Scale{
		Warmup:    5_000,
		Measured:  10_000,
		Workloads: []string{"433.milc", "444.namd"},
	}
}

func TestRunFig3(t *testing.T) {
	res, err := RunFig3(ticks.FromUS(120))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Fig3 rows = %d, want 4", len(res.Rows))
	}
	if res.Rows[0].NMit != 0 || res.Rows[0].ABOs != 0 {
		t.Errorf("first row should be the No-ABO panel: %+v", res.Rows[0])
	}
	// Spike magnitude must grow with the PRAC level.
	if !(res.Rows[3].SpikeNS > res.Rows[1].SpikeNS) {
		t.Errorf("PRAC-4 spike %.0fns not above PRAC-1 %.0fns", res.Rows[3].SpikeNS, res.Rows[1].SpikeNS)
	}
	if !strings.Contains(res.Render(), "Figure 3") || res.CSV() == "" {
		t.Error("rendering broken")
	}
}

func TestRunTable2(t *testing.T) {
	res, err := RunTable2(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("Table2 rows = %d, want 6", len(res.Rows))
	}
	// Bitrate decreases with NBO within each channel type, and the
	// count-based channel beats the activity channel at equal NBO.
	if !(res.Rows[0].BitrateKbps > res.Rows[2].BitrateKbps) {
		t.Errorf("activity bitrate should fall with NBO: %+v", res.Rows[:3])
	}
	if !(res.Rows[3].BitrateKbps > res.Rows[0].BitrateKbps) {
		t.Errorf("count channel (%.1f) should outpace activity (%.1f)",
			res.Rows[3].BitrateKbps, res.Rows[0].BitrateKbps)
	}
	for _, row := range res.Rows {
		if row.ErrorRate > 0.25 {
			t.Errorf("%s NBO=%d error rate %.2f too high", row.Type, row.NBO, row.ErrorRate)
		}
	}
}

func TestRunFig4(t *testing.T) {
	res, err := RunFig4(150)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Attack.Hit {
		t.Errorf("Fig4 attack missed: got row %d want %d", res.Attack.RecoveredRow, res.Attack.TrueRow)
	}
	if len(res.VictimBy) == 0 {
		t.Error("no timeline points")
	}
	if !strings.Contains(res.Render(), "Figure 4") || res.CSV() == "" {
		t.Error("rendering broken")
	}
}

func TestRunFig5(t *testing.T) {
	res, err := RunFig5(150, 64) // 4 key values
	if err != nil {
		t.Fatal(err)
	}
	if len(res.K0Values) != 4 {
		t.Fatalf("swept %d key values, want 4", len(res.K0Values))
	}
	if res.HitRate() < 0.75 {
		t.Errorf("hit rate %.2f, want mostly hits", res.HitRate())
	}
	if !strings.Contains(res.Render(), "heatmap") {
		t.Error("rendering broken")
	}
}

func TestRunFig9(t *testing.T) {
	res, err := RunFig9(150, 64) // 4 key values
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.K0Values)
	if res.UndefHits < n-1 {
		t.Errorf("undefended hit rate %d/%d; the attack should leak", res.UndefHits, n)
	}
	if res.DefendedHit == n {
		t.Errorf("TPRAC leaked the key for every value (%d/%d)", res.DefendedHit, n)
	}
	if !strings.Contains(res.Render(), "Figure 9") {
		t.Error("rendering broken")
	}
}

func TestRunFig7(t *testing.T) {
	res, err := RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 || len(res.Windows) != 6 {
		t.Fatalf("points=%d windows=%d, want 6 each", len(res.Points), len(res.Windows))
	}
	prev := 0.0
	for _, w := range res.Windows {
		if w.WithResetTREFI <= prev {
			t.Errorf("solved window not increasing with NBO: %+v", res.Windows)
			break
		}
		prev = w.WithResetTREFI
	}
	if !strings.Contains(res.Render(), "Figure 7") || res.CSV() == "" {
		t.Error("rendering broken")
	}
}

func TestRunFig10Tiny(t *testing.T) {
	res, err := RunFig10(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 2 || len(res.Variants) != 3 {
		t.Fatalf("shape = %d workloads x %d variants", len(res.Workloads), len(res.Variants))
	}
	for j, v := range res.Variants {
		g := res.GeomeanAll[j]
		if g <= 0.5 || g > 1.05 {
			t.Errorf("%s geomean = %.3f, implausible", v, g)
		}
	}
	// TPRAC must cost more than ABO-Only (which is nearly free).
	if !(res.GeomeanAll[2] < res.GeomeanAll[0]+0.005) {
		t.Errorf("TPRAC (%.3f) not below ABO-Only (%.3f)", res.GeomeanAll[2], res.GeomeanAll[0])
	}
	if !strings.Contains(res.Render(), "GEOMEAN") {
		t.Error("rendering broken")
	}
}

func TestRunFig12Tiny(t *testing.T) {
	scale := tinyScale()
	scale.Workloads = []string{"433.milc"}
	res, err := RunFig12(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Geomean) != 5 {
		t.Fatalf("Fig12 x values = %d, want 5", len(res.Geomean))
	}
	// One TREF per tREFI fully replaces TB-RFMs: performance at least as
	// good as TPRAC without TREF.
	none := res.Geomean[0][0]
	full := res.Geomean[4][0]
	if full < none-0.01 {
		t.Errorf("TREF/1 (%.3f) worse than no TREF (%.3f)", full, none)
	}
}

func TestRunTable5Tiny(t *testing.T) {
	scale := tinyScale()
	scale.Workloads = []string{"433.milc"}
	res, err := RunTable5(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("Table5 rows = %d, want 6", len(res.Rows))
	}
	// Energy overhead decreases as NRH rises (fewer TB-RFMs needed).
	if !(res.Rows[0].TotalPct > res.Rows[5].TotalPct) {
		t.Errorf("overhead at NRH=128 (%.2f%%) not above NRH=4096 (%.2f%%)",
			res.Rows[0].TotalPct, res.Rows[5].TotalPct)
	}
	if res.Rows[0].MitigationPct <= 0 {
		t.Errorf("no mitigation energy at NRH=128: %+v", res.Rows[0])
	}
}

func TestRunRFMpbTiny(t *testing.T) {
	scale := tinyScale()
	scale.Workloads = []string{"433.milc"}
	res, err := RunRFMpb(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NRHs) != 3 {
		t.Fatalf("NRH points = %d, want 3", len(res.NRHs))
	}
	for i, nrh := range res.NRHs {
		if res.Alerts[i] != 0 {
			t.Errorf("NRH %d: %d alerts under per-bank TB-RFM", nrh, res.Alerts[i])
		}
		// The whole point of RFMpb: cheaper than channel-wide RFMab.
		if res.RFMpb[i] < res.RFMab[i]-0.01 {
			t.Errorf("NRH %d: RFMpb (%.3f) worse than RFMab (%.3f)", nrh, res.RFMpb[i], res.RFMab[i])
		}
	}
	if !strings.Contains(res.Render(), "per-bank") {
		t.Error("rendering broken")
	}
}

func TestConfigureVariants(t *testing.T) {
	r := newRunner(tinyScale())
	cfg, err := r.configure(Variant{Name: "TPRAC", Policy: 2 /* PolicyTPRAC */, NRH: 1024}, "433.milc")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TBWindow <= 0 {
		t.Error("TPRAC variant got no TB-Window")
	}
	cfg, err = r.configure(Variant{Name: "ACB", Policy: 1 /* PolicyACB */, NRH: 1024}, "433.milc")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BAT < 2 {
		t.Errorf("ACB variant BAT = %d", cfg.BAT)
	}
	// TPRAC and ACB at one threshold size from the same solve.
	if n := r.windows.Len(); n != 1 {
		t.Errorf("%d TB-Window solves for one threshold, want 1", n)
	}
	if _, err := r.configure(Variant{Name: "bad", Policy: 2, NRH: 4}, "433.milc"); err == nil {
		t.Error("unprotectable NRH accepted")
	}
}

// A Figure 14 session solves each (NRH, reset) TB-Window once: the four
// TPRAC variants per threshold need two solves, and the TREF/1 cells
// reuse their counterparts' windows instead of solving again.
func TestFig14SolvesOncePerThreshold(t *testing.T) {
	scale := tinyScale()
	scale.Workloads = []string{"444.namd"}
	r := newRunner(scale)
	if _, err := runFig14(r); err != nil {
		t.Fatal(err)
	}
	p := analysis.ParamsFromDRAM(sim.DefaultSystemConfig(1024).DRAM)
	nrhs := []int{128, 256, 512, 1024, 2048, 4096}
	if n, want := r.windows.Len(), 2*len(nrhs); n != want {
		t.Fatalf("fig14 session memoized %d TB-Window solves, want %d", n, want)
	}
	for _, nrh := range nrhs {
		for _, reset := range []bool{true, false} {
			resolved := false
			r.windows.Do(solveKey{p: p, nbo: nrh, reset: reset}, func() (ticks.T, error) {
				resolved = true
				return 0, nil
			})
			if resolved {
				t.Errorf("NRH %d reset=%v: window not memoized by the session", nrh, reset)
			}
		}
	}
}

func TestTBWindowFor(t *testing.T) {
	w, err := TBWindowFor(1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Error("zero window")
	}
}
