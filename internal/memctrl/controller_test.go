package memctrl

import (
	"testing"

	"pracsim/internal/dram"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
)

// testRig wires a small controller for direct request-level tests.
type testRig struct {
	ctrl *Controller
	mod  *dram.Module
	now  ticks.T
}

func newRig(t *testing.T, dcfg dram.Config, ccfg Config, policy mitigation.Policy) *testRig {
	t.Helper()
	mod, err := dram.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewLinearMapper(dcfg.Org)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(ccfg, mod, mapper, policy)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{ctrl: ctrl, mod: mod}
}

func smallDRAM(nbo int) dram.Config {
	cfg := dram.DefaultConfig(nbo)
	cfg.Org.Ranks = 1
	cfg.Org.BankGroups = 2
	cfg.Org.BanksPerGroup = 2
	cfg.Org.Rows = 256
	return cfg
}

// run advances the controller until the deadline or until stop returns true.
func (r *testRig) run(deadline ticks.T, stop func() bool) {
	for r.now < deadline {
		r.ctrl.Tick(r.now)
		r.now += CyclePeriod
		if stop != nil && stop() {
			return
		}
	}
}

// lineFor builds a cache-line address for a bank/row/column location.
func (r *testRig) lineFor(bank, row, col int) uint64 {
	return r.ctrl.Mapper().Encode(Loc{Bank: bank, Row: row, Col: col})
}

func TestReadCompletesWithRowMissLatency(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	var done ticks.T
	req := &Request{Line: rig.lineFor(0, 5, 0), Done: ticks.CompleteFunc(func(at ticks.T) { done = at })}
	if !rig.ctrl.Enqueue(req, 0) {
		t.Fatal("Enqueue refused")
	}
	rig.run(ticks.FromNS(500), func() bool { return done != 0 })
	if done == 0 {
		t.Fatal("read never completed")
	}
	tm := rig.mod.Config().Timing
	min := tm.TRCD + tm.TCL + tm.TBURST
	if done < min || done > min+ticks.FromNS(20) {
		t.Errorf("read latency = %v, want about tRCD+tCL+tBURST = %v", done, min)
	}
	s := rig.ctrl.Stats()
	if s.RowMisses != 1 || s.RowHits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/1", s.RowHits, s.RowMisses)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	var first, second ticks.T
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 5, 0), Done: ticks.CompleteFunc(func(at ticks.T) { first = at })}, 0)
	rig.run(ticks.FromNS(1000), func() bool { return first != 0 })
	start := rig.now
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 5, 1), Done: ticks.CompleteFunc(func(at ticks.T) { second = at })}, rig.now)
	rig.run(rig.now+ticks.FromNS(1000), func() bool { return second != 0 })
	missLat := first
	hitLat := second - start
	if hitLat >= missLat {
		t.Errorf("row hit latency %v not faster than miss %v", hitLat, missLat)
	}
	if s := rig.ctrl.Stats(); s.RowHits != 1 {
		t.Errorf("RowHits = %d, want 1", s.RowHits)
	}
}

func TestWriteIsPostedAndForwarded(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	line := rig.lineFor(1, 9, 3)
	if !rig.ctrl.Enqueue(&Request{Line: line, Write: true}, 0) {
		t.Fatal("write refused")
	}
	var done ticks.T
	rig.ctrl.Enqueue(&Request{Line: line, Done: ticks.CompleteFunc(func(at ticks.T) { done = at })}, 0)
	if done == 0 {
		t.Fatal("read of pending write was not forwarded")
	}
	if s := rig.ctrl.Stats(); s.WriteForward != 1 {
		t.Errorf("WriteForward = %d, want 1", s.WriteForward)
	}
}

func TestWriteDrainEventuallyWritesBack(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	for i := 0; i < 50; i++ {
		if !rig.ctrl.Enqueue(&Request{Line: rig.lineFor(i%4, i, 0), Write: true}, 0) {
			t.Fatalf("write %d refused", i)
		}
	}
	rig.run(ticks.FromUS(20), func() bool {
		_, w := rig.ctrl.QueueLen()
		return w == 0
	})
	if _, w := rig.ctrl.QueueLen(); w != 0 {
		t.Fatalf("write queue not drained: %d left", w)
	}
	if got := rig.mod.Stats().WRs; got != 50 {
		t.Errorf("WR commands = %d, want 50", got)
	}
}

func TestQueueBackpressure(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.ReadQueueCap = 2
	rig := newRig(t, smallDRAM(1024), ccfg, mitigation.NewABOOnly())
	ok1 := rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 1, 0)}, 0)
	ok2 := rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 2, 0)}, 0)
	ok3 := rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 3, 0)}, 0)
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("enqueue = %v,%v,%v; want true,true,false", ok1, ok2, ok3)
	}
}

func TestRefreshHappensAtTREFIRate(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	horizon := ticks.FromUS(40)
	rig.run(horizon, nil)
	tm := rig.mod.Config().Timing
	want := int64(horizon / tm.TREFI) // one rank in smallDRAM
	got := rig.ctrl.Stats().Refreshes
	if got < want-1 || got > want+1 {
		t.Errorf("refreshes = %d, want about %d", got, want)
	}
}

func TestTREFCadenceAndPolicyNotification(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.TREFEvery = 2
	pol, err := mitigation.NewTPRAC(ticks.FromUS(1000), true) // huge window: isolate TREF path
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, smallDRAM(1024), ccfg, pol)
	rig.run(ticks.FromUS(40), nil)
	s := rig.ctrl.Stats()
	if s.TREFs == 0 {
		t.Fatal("no targeted refreshes with TREFEvery=2")
	}
	if s.Refreshes < 2*s.TREFs {
		t.Errorf("TREFs = %d of %d refreshes; want at most every 2nd", s.TREFs, s.Refreshes)
	}
}

// hammerLoop keeps a row-conflict pair of requests in flight to generate
// activations as fast as tRC allows.
func hammerLoop(rig *testRig, bank, rowA, rowB int, deadline ticks.T, stop func() bool) {
	outstanding := 0
	next := rowA
	for rig.now < deadline {
		if outstanding == 0 {
			row := next
			if next == rowA {
				next = rowB
			} else {
				next = rowA
			}
			outstanding++
			rig.ctrl.Enqueue(&Request{
				Line: rig.lineFor(bank, row, 0),
				Done: ticks.CompleteFunc(func(ticks.T) { outstanding-- }),
			}, rig.now)
		}
		rig.ctrl.Tick(rig.now)
		rig.now += CyclePeriod
		if stop != nil && stop() {
			return
		}
	}
}

func TestABOServiceIssuesRFMsAndMitigates(t *testing.T) {
	dcfg := smallDRAM(32)
	rig := newRig(t, dcfg, DefaultConfig(), mitigation.NewABOOnly())
	hammerLoop(rig, 0, 1, 2, ticks.FromUS(40), func() bool {
		return rig.ctrl.Stats().ABORFMs > 0
	})
	s := rig.ctrl.Stats()
	if s.ABORFMs == 0 {
		t.Fatal("hammering past NBO never produced an ABO RFM")
	}
	if rig.mod.Stats().MitigatedRows == 0 {
		t.Fatal("RFM performed no mitigation")
	}
	if s.PolicyRFMs != 0 {
		t.Errorf("PolicyRFMs = %d, want 0 under ABO-Only", s.PolicyRFMs)
	}
}

func TestABOServiceHonorsPRACLevel(t *testing.T) {
	dcfg := smallDRAM(32)
	dcfg.PRAC.NMit = 4
	rig := newRig(t, dcfg, DefaultConfig(), mitigation.NewABOOnly())
	hammerLoop(rig, 0, 1, 2, ticks.FromUS(60), func() bool {
		return rig.ctrl.Stats().ABORFMs >= 4
	})
	if got := rig.ctrl.Stats().ABORFMs; got < 4 {
		t.Fatalf("ABORFMs = %d, want the full PRAC level burst of 4", got)
	}
	// All four must belong to one Alert.
	if alerts := rig.mod.Stats().AlertsAsserted; alerts != 1 {
		t.Errorf("alerts = %d, want 1", alerts)
	}
}

func TestTPRACPreventsAlerts(t *testing.T) {
	dcfg := smallDRAM(64)
	// One TB-RFM per 32 activations' worth of time keeps every row far
	// below NBO=64 even under a focused hammer.
	window := dcfg.Timing.TRC * 32
	pol, err := mitigation.NewTPRAC(window, false)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, dcfg, DefaultConfig(), pol)
	hammerLoop(rig, 0, 1, 2, ticks.FromUS(200), nil)
	s := rig.ctrl.Stats()
	if s.PolicyRFMs == 0 {
		t.Fatal("TPRAC issued no TB-RFMs")
	}
	if got := rig.mod.Stats().AlertsAsserted; got != 0 {
		t.Fatalf("alerts = %d under TPRAC, want 0", got)
	}
	if s.ABORFMs != 0 {
		t.Fatalf("ABORFMs = %d under TPRAC, want 0", s.ABORFMs)
	}
}

func TestTBRFMRateIsTimeNotActivityDependent(t *testing.T) {
	window := ticks.FromUS(2)
	horizon := ticks.FromUS(100)

	runWith := func(hammer bool) int64 {
		pol, err := mitigation.NewTPRAC(window, false)
		if err != nil {
			t.Fatal(err)
		}
		rig := newRig(t, smallDRAM(1<<30), DefaultConfig(), pol)
		if hammer {
			hammerLoop(rig, 0, 1, 2, horizon, nil)
		} else {
			rig.run(horizon, nil)
		}
		return rig.ctrl.Stats().PolicyRFMs
	}
	idle := runWith(false)
	busy := runWith(true)
	if idle != busy {
		t.Fatalf("TB-RFM count differs with activity: idle=%d busy=%d", idle, busy)
	}
	want := int64(horizon / window)
	if idle < want-1 || idle > want+1 {
		t.Errorf("TB-RFM count = %d, want about %d", idle, want)
	}
}

func TestACBFiresOnBankActivity(t *testing.T) {
	dcfg := smallDRAM(1 << 30)
	pol, err := mitigation.NewACB(dcfg.Org.Banks(), 16)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, dcfg, DefaultConfig(), pol)
	hammerLoop(rig, 0, 1, 2, ticks.FromUS(40), func() bool {
		return rig.ctrl.Stats().PolicyRFMs > 0
	})
	if rig.ctrl.Stats().PolicyRFMs == 0 {
		t.Fatal("ACB never fired despite heavy bank activity")
	}
}

func TestNewRejectsBadArguments(t *testing.T) {
	dcfg := smallDRAM(1024)
	mod := dram.MustNew(dcfg)
	mapper, _ := NewLinearMapper(dcfg.Org)
	if _, err := New(DefaultConfig(), nil, mapper, mitigation.NewABOOnly()); err == nil {
		t.Error("nil module accepted")
	}
	bad := DefaultConfig()
	bad.ReadQueueCap = 0
	if _, err := New(bad, mod, mapper, mitigation.NewABOOnly()); err == nil {
		t.Error("zero read queue accepted")
	}
	bad = DefaultConfig()
	bad.FRFCFSCap = 0
	if _, err := New(bad, mod, mapper, mitigation.NewABOOnly()); err == nil {
		t.Error("zero FR-FCFS cap accepted")
	}
}
