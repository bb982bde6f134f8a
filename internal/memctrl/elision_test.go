package memctrl

import (
	"testing"

	"pracsim/internal/dram"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
)

// TestWriteForwardIndexTracksQueue pins the O(1) forwarding index against
// queue movement: forwarding must trigger exactly while a write to the
// line is queued, including duplicate writes, and stop once the last one
// drains to DRAM.
func TestWriteForwardIndexTracksQueue(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	line := rig.lineFor(1, 9, 3)
	other := rig.lineFor(2, 4, 1)

	// Two writes to the same line, one to another: forwarding must hit
	// while either same-line write is in flight.
	for i := 0; i < 2; i++ {
		if !rig.ctrl.Enqueue(&Request{Line: line, Write: true}, rig.now) {
			t.Fatal("write refused")
		}
	}
	if !rig.ctrl.Enqueue(&Request{Line: other, Write: true}, rig.now) {
		t.Fatal("write refused")
	}
	var done ticks.T
	rig.ctrl.Enqueue(&Request{Line: line, Done: ticks.CompleteFunc(func(at ticks.T) { done = at })}, rig.now)
	if done == 0 {
		t.Fatal("read of doubly-pending write was not forwarded")
	}
	if s := rig.ctrl.Stats(); s.WriteForward != 1 {
		t.Fatalf("WriteForward = %d, want 1", s.WriteForward)
	}

	// Drain every write, then the index must be empty: reads go to DRAM.
	rig.run(rig.now+ticks.FromUS(20), func() bool {
		_, w := rig.ctrl.QueueLen()
		return w == 0
	})
	if n := len(rig.ctrl.writeLines); n != 0 {
		t.Fatalf("forwarding index holds %d lines after drain, want 0", n)
	}
	done = 0
	rig.ctrl.Enqueue(&Request{Line: line, Done: ticks.CompleteFunc(func(at ticks.T) { done = at })}, rig.now)
	if done != 0 {
		t.Fatal("read forwarded after all writes drained")
	}
	if s := rig.ctrl.Stats(); s.WriteForward != 1 {
		t.Fatalf("WriteForward = %d after drain, want still 1", s.WriteForward)
	}
}

// TestWriteForwardDeepQueue forwards against a near-full write queue —
// the regime where the old O(n) scan was quadratic across enqueues.
func TestWriteForwardDeepQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteHi = 63 // don't start draining during setup
	rig := newRig(t, smallDRAM(1024), cfg, mitigation.NewABOOnly())
	var lines []uint64
	for i := 0; i < 60; i++ {
		l := rig.lineFor(i%4, i/4, i%8)
		lines = append(lines, l)
		if !rig.ctrl.Enqueue(&Request{Line: l, Write: true}, 0) {
			t.Fatalf("write %d refused", i)
		}
	}
	forwarded := 0
	for _, l := range lines {
		rig.ctrl.Enqueue(&Request{Line: l, Done: ticks.CompleteFunc(func(ticks.T) { forwarded++ })}, 0)
	}
	if forwarded != len(lines) {
		t.Fatalf("forwarded %d of %d reads against a deep write queue", forwarded, len(lines))
	}
}

func TestNextWorkBusyThenQuiescent(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 5, 0)}, 0)
	if next := rig.ctrl.NextWork(0); next != CyclePeriod {
		t.Fatalf("NextWork = %v with a queued read, want next cycle", next)
	}
	// Drain the read; the controller then has only its refresh schedule.
	var done ticks.T
	rig.run(ticks.FromUS(2), func() bool {
		r, w := rig.ctrl.QueueLen()
		return r == 0 && w == 0 && done >= 0
	})
	next := rig.ctrl.NextWork(rig.now)
	if next <= rig.now || next == ticks.Never {
		t.Fatalf("NextWork = %v for an idle controller, want the refresh deadline", next)
	}
	trefi := rig.mod.Config().Timing.TREFI
	if next > trefi+rig.now {
		t.Fatalf("NextWork = %v, beyond one tREFI (%v) from now", next, trefi)
	}
}

func TestNextWorkNoRefreshQuiescentForever(t *testing.T) {
	dcfg := smallDRAM(1024)
	dcfg.PRAC.ResetOnREFW = false
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	rig := newRig(t, dcfg, ccfg, mitigation.NewABOOnly())
	if next := rig.ctrl.NextWork(0); next != ticks.Never {
		t.Fatalf("NextWork = %v with refresh off and no policy deadline, want Never", next)
	}
}

func TestNextWorkSeesPolicyDeadline(t *testing.T) {
	window := ticks.FromNS(500)
	p, err := mitigation.NewTPRAC(window, false)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := smallDRAM(1024)
	dcfg.PRAC.ResetOnREFW = false
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	rig := newRig(t, dcfg, ccfg, p)
	if next := rig.ctrl.NextWork(0); next != window {
		t.Fatalf("NextWork = %v, want the TB-Window deadline %v", next, window)
	}
}

func TestWakerFiresOnFirstEnqueueOnly(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	var wakes []ticks.T
	rig.ctrl.SetWaker(func(now ticks.T) { wakes = append(wakes, now) })
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 1, 0)}, 8)
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 2, 0)}, 8)
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(1, 1, 0), Write: true}, 12)
	if len(wakes) != 1 || wakes[0] != 8 {
		t.Fatalf("wakes = %v, want exactly [8] (empty-to-occupied transition)", wakes)
	}
}

// TestTickAllocFree is the allocation-free assertion for the controller
// hot path: steady-state ticking — including FR-FCFS scans with the
// generation-stamped scratch state and maintenance accrual — must not
// allocate. Requests are pre-allocated and re-enqueued on completion so
// the workload itself adds nothing.
func TestTickAllocFree(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	reqs := make([]*Request, 16)
	var recycle func(i int) func(ticks.T)
	recycle = func(i int) func(ticks.T) { return func(ticks.T) {} }
	for i := range reqs {
		reqs[i] = &Request{Line: rig.lineFor(i%4, i, 0), Done: ticks.CompleteFunc(recycle(i))}
		if !rig.ctrl.Enqueue(reqs[i], 0) {
			t.Fatalf("request %d refused", i)
		}
	}
	rig.run(ticks.FromUS(2), nil) // steady state: queues warm, rows open
	allocs := testing.AllocsPerRun(2000, func() {
		rig.ctrl.Tick(rig.now)
		rig.now += CyclePeriod
	})
	// One refresh interval inside the measured window appends to no
	// queue; allow only rare incidental allocations (e.g. a map rehash),
	// not a per-tick cost.
	if allocs > 0.01 {
		t.Errorf("Tick allocates %.3f objects per call, want 0", allocs)
	}
}

// readDone is a Completer that records its last completion.
type readDone struct {
	n   int
	tag uint64
	at  ticks.T
}

func (r *readDone) Complete(tag uint64, at ticks.T) { r.n, r.tag, r.at = r.n+1, tag, at }

// TestReadPathAllocFree is the allocation guard for one read's whole
// trip: Enqueue copies the request into controller-owned storage, Tick
// schedules it, and completion reaches a typed target. Once warm, none
// of it allocates.
func TestReadPathAllocFree(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	done := &readDone{}
	i := 0
	read := func() {
		i++
		n, start := done.n, rig.now
		req := Request{Line: rig.lineFor(i%4, i%64, i%8), Done: done, Tag: uint64(i)}
		if !rig.ctrl.Enqueue(&req, rig.now) {
			t.Fatal("read refused by an idle controller")
		}
		for done.n == n {
			rig.ctrl.Tick(rig.now)
			rig.now += CyclePeriod
		}
		if done.tag != uint64(i) || done.at <= start {
			t.Fatalf("read %d completed as tag %d at %v", i, done.tag, done.at)
		}
	}
	for range 256 {
		read() // warm: every row's PRAC counter exists
	}
	if allocs := testing.AllocsPerRun(500, read); allocs != 0 {
		t.Errorf("Enqueue → Tick → Complete allocates %v objects per read, want 0", allocs)
	}
	if r, w := rig.ctrl.QueueLen(); r != 0 || w != 0 {
		t.Fatalf("queues hold %d reads and %d writes after every read completed", r, w)
	}
}

// BenchmarkControllerTickSaturated drives the controller with a
// self-refilling read stream: every tick schedules against warm queues.
func BenchmarkControllerTickSaturated(b *testing.B) {
	dcfg := smallDRAM(1 << 20)
	mod, err := dram.New(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	mapper, err := NewLinearMapper(dcfg.Org)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := New(DefaultConfig(), mod, mapper, mitigation.NewABOOnly())
	if err != nil {
		b.Fatal(err)
	}
	now := ticks.T(0)
	row := 0
	var refill func(at ticks.T)
	pending := 0
	refill = func(ticks.T) { pending-- }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pending < 16 {
			row++
			if ctrl.Enqueue(&Request{Line: mapper.Encode(Loc{Bank: row % 4, Row: row % 256}), Done: ticks.CompleteFunc(refill)}, now) {
				pending++
			} else {
				break
			}
		}
		ctrl.Tick(now)
		now += CyclePeriod
	}
}

// BenchmarkControllerEnqueueDeepWriteQueue measures read enqueue against
// a deep write queue — the path the forwarding index turned O(1).
func BenchmarkControllerEnqueueDeepWriteQueue(b *testing.B) {
	dcfg := smallDRAM(1 << 20)
	mod, err := dram.New(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	mapper, err := NewLinearMapper(dcfg.Org)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WriteQueueCap = 256
	cfg.WriteHi = 255
	ctrl, err := New(cfg, mod, mapper, mitigation.NewABOOnly())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 250; i++ {
		if !ctrl.Enqueue(&Request{Line: mapper.Encode(Loc{Bank: i % 4, Row: i % 256}), Write: true}, 0) {
			b.Fatalf("write %d refused", i)
		}
	}
	miss := &Request{Line: mapper.Encode(Loc{Bank: 3, Row: 255, Col: 7})}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A non-forwarded read probes the index once; drop it from the
		// read queue again so the enqueue path stays the measured cost.
		if ctrl.Enqueue(miss, 0) {
			ctrl.remove(&ctrl.readQ, 0)
		}
	}
}
