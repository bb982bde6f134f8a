package cpu

import (
	"testing"

	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// pendingMem accepts loads but never completes them until released.
type pendingMem struct {
	done []func(ticks.T)
}

func (m *pendingMem) Access(line uint64, write bool, pc uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	if to != nil {
		m.done = append(m.done, func(at ticks.T) { to.Complete(tag, at) })
	}
	return true
}

func loads(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400000, IsMem: true, Line: uint64(i)}
	}
	return recs
}

func TestNextWorkFreshInstructionsIsNextCycle(t *testing.T) {
	c := newCore(t, DefaultConfig(), nonMem(100), &fakeMem{})
	c.Tick(0)
	if next := c.NextWork(0); next != 1 {
		t.Fatalf("NextWork = %v, want next cycle while the stream has work", next)
	}
}

func TestNextWorkROBFullPendingHeadIsNever(t *testing.T) {
	cfg := Config{IssueWidth: 6, RetireWidth: 4, ROBSize: 8}
	mem := &pendingMem{}
	c := newCore(t, cfg, loads(100), mem)
	for i := 0; c.Stats().Loads < 8 && i < 10; i++ {
		c.Tick(ticks.T(i))
	}
	if next := c.NextWork(10); next != ticks.Never {
		t.Fatalf("NextWork = %v with a full ROB behind a pending load, want Never", next)
	}
}

func TestNextWorkROBFullKnownHeadIsCompletionTime(t *testing.T) {
	cfg := Config{IssueWidth: 8, RetireWidth: 4, ROBSize: 8}
	mem := &pendingMem{}
	c := newCore(t, cfg, loads(100), mem)
	c.Tick(0) // fills the ROB with 8 pending loads
	if c.Stats().Loads != 8 {
		t.Fatalf("loads = %d, want 8", c.Stats().Loads)
	}
	for _, d := range mem.done {
		d(500) // all complete at t=500
	}
	if next := c.NextWork(1); next != 500 {
		t.Fatalf("NextWork = %v, want 500 (head completion)", next)
	}
}

func TestNextWorkStalledUsesRetrySlot(t *testing.T) {
	mem := &fakeMem{latency: 10, refuse: 50}
	c := newCore(t, DefaultConfig(), loads(100), mem)
	c.SetRetrySlot(func(now ticks.T) ticks.T { return now + 4 })
	c.Tick(0) // first dispatch refused: record parks in c.stalled
	if next := c.NextWork(0); next != 4 {
		t.Fatalf("NextWork = %v while stalled, want the injected retry slot 4", next)
	}
}

func TestNextWorkDrainedCoreIsNever(t *testing.T) {
	c := newCore(t, DefaultConfig(), nonMem(4), &fakeMem{})
	run(t, c, 20)
	if !c.Done() {
		t.Fatal("core not drained")
	}
	if next := c.NextWork(20); next != ticks.Never {
		t.Fatalf("NextWork = %v for a drained core, want Never", next)
	}
}

// TestIdleCreditingMatchesPerCycleTicking is the bit-identity contract at
// the core level: skipping provably-idle cycles and crediting them on the
// next Tick must leave every counter except ElidedCycles exactly where
// per-cycle ticking puts it.
func TestIdleCreditingMatchesPerCycleTicking(t *testing.T) {
	build := func() (*Core, *pendingMem) {
		cfg := Config{IssueWidth: 8, RetireWidth: 4, ROBSize: 8}
		mem := &pendingMem{}
		c, err := New(0, cfg, trace.NewSliceStream(loads(16)), mem, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return c, mem
	}

	// Per-cycle reference: tick 0..99, completions land at 50.
	ref, refMem := build()
	for now := ticks.T(0); now < 100; now++ {
		if now == 50 {
			for _, d := range refMem.done {
				d(50)
			}
			refMem.done = nil
		}
		ref.Tick(now)
	}

	// Elided: tick until the ROB is full (t=0), skip straight to the
	// completion at 50, resume ticking there.
	el, elMem := build()
	el.Tick(0)
	if next := el.NextWork(0); next != ticks.Never {
		t.Fatalf("NextWork = %v, want Never (parked)", next)
	}
	for _, d := range elMem.done {
		d(50)
	}
	elMem.done = nil
	for now := ticks.T(50); now < 100; now++ {
		el.Tick(now)
	}

	rs, es := ref.Stats(), el.Stats()
	es.ElidedCycles = 0 // the one legitimately differing field
	if rs != es {
		t.Fatalf("stats diverge:\nper-cycle: %+v\nelided:    %+v", rs, es)
	}
	if el.Stats().ElidedCycles != 49 {
		t.Errorf("ElidedCycles = %d, want 49 (cycles 1..49 skipped)", el.Stats().ElidedCycles)
	}
}

func TestSyncClockSuppressesSpuriousCredit(t *testing.T) {
	c := newCore(t, DefaultConfig(), nonMem(1000), &fakeMem{})
	c.Tick(0)
	cyc := c.Stats().Cycles
	// A deliberate gap (e.g. a measurement-phase boundary) must not be
	// misread as elided idle time once the clock is resynced.
	c.SyncClock(500)
	c.Tick(500)
	if got := c.Stats().Cycles; got != cyc+1 {
		t.Fatalf("Cycles = %d after resynced tick, want %d", got, cyc+1)
	}
	if c.Stats().ElidedCycles != 0 {
		t.Fatalf("ElidedCycles = %d, want 0", c.Stats().ElidedCycles)
	}
}

// TestWakerFiresOnHeadCompletionOnly: only the load blocking retirement
// wakes a parked clock.
func TestWakerFiresOnHeadCompletionOnly(t *testing.T) {
	cfg := Config{IssueWidth: 4, RetireWidth: 4, ROBSize: 4}
	mem := &pendingMem{}
	c := newCore(t, cfg, loads(100), mem)
	var wakes []ticks.T
	c.SetWaker(func(at ticks.T) { wakes = append(wakes, at) })
	c.Tick(0) // ROB fills with 4 pending loads
	if len(mem.done) != 4 {
		t.Fatalf("outstanding loads = %d, want 4", len(mem.done))
	}
	mem.done[2](30) // non-head completion: no wake
	if len(wakes) != 0 {
		t.Fatalf("non-head completion woke the core: %v", wakes)
	}
	mem.done[0](40) // head completion: wake at data-return time
	if len(wakes) != 1 || wakes[0] != 40 {
		t.Fatalf("wakes = %v, want [40]", wakes)
	}
}
