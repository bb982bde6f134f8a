package cpu

import (
	"testing"

	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// fakeMem completes loads after a fixed latency, optionally refusing the
// first few accesses.
type fakeMem struct {
	latency ticks.T
	refuse  int
	loads   int
	stores  int
}

func (m *fakeMem) Access(line uint64, write bool, pc uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	if m.refuse > 0 {
		m.refuse--
		return false
	}
	if write {
		m.stores++
		return true
	}
	m.loads++
	if to != nil {
		to.Complete(tag, now+m.latency)
	}
	return true
}

func run(t *testing.T, c *Core, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		c.Tick(ticks.T(i))
	}
}

func nonMem(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{PC: uint64(0x400000 + i*4)}
	}
	return recs
}

func newCore(t *testing.T, cfg Config, recs []trace.Record, mem MemPort) *Core {
	t.Helper()
	c, err := New(0, cfg, trace.NewSliceStream(recs), mem, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNonMemIPCBoundedByRetireWidth(t *testing.T) {
	cfg := Config{IssueWidth: 6, RetireWidth: 4, ROBSize: 64}
	c := newCore(t, cfg, nonMem(4000), &fakeMem{})
	run(t, c, 1000)
	ipc := c.Stats().IPC()
	if ipc < 3.5 || ipc > 4.0 {
		t.Fatalf("IPC = %.2f, want close to retire width 4", ipc)
	}
}

func TestLoadLatencyThrottlesIPC(t *testing.T) {
	cfg := Config{IssueWidth: 4, RetireWidth: 4, ROBSize: 8}
	recs := make([]trace.Record, 2000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400000, IsMem: true, Line: uint64(i)}
	}
	slow := newCore(t, cfg, recs, &fakeMem{latency: 400})
	run(t, slow, 4000)
	fastCore := newCore(t, cfg, recs, &fakeMem{latency: 4})
	run(t, fastCore, 4000)
	if slow.Stats().Instructions >= fastCore.Stats().Instructions {
		t.Fatalf("slow memory retired %d, fast %d; latency must throttle",
			slow.Stats().Instructions, fastCore.Stats().Instructions)
	}
	// With an 8-entry ROB and 400-cycle loads, throughput is bounded by
	// ROB/latency = 0.02 IPC.
	if ipc := slow.Stats().IPC(); ipc > 0.05 {
		t.Fatalf("slow IPC = %.3f, want ROB-bound (about 0.02)", ipc)
	}
}

func TestStoresArePosted(t *testing.T) {
	cfg := Config{IssueWidth: 4, RetireWidth: 4, ROBSize: 16}
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400000, IsMem: true, Write: true, Line: uint64(i)}
	}
	mem := &fakeMem{latency: 10000} // latency irrelevant to stores
	c := newCore(t, cfg, recs, mem)
	for i := 0; i < 600 && !c.Done(); i++ {
		c.Tick(ticks.T(i))
	}
	if ipc := c.Stats().IPC(); ipc < 3 {
		t.Fatalf("store-only IPC = %.2f; stores must not block retirement", ipc)
	}
	if mem.stores == 0 {
		t.Fatal("no stores reached memory")
	}
}

func TestRefusedAccessRetries(t *testing.T) {
	cfg := Config{IssueWidth: 1, RetireWidth: 1, ROBSize: 4}
	recs := []trace.Record{{PC: 1, IsMem: true, Line: 42}}
	mem := &fakeMem{latency: 2, refuse: 3}
	c := newCore(t, cfg, recs, mem)
	run(t, c, 20)
	if mem.loads != 1 {
		t.Fatalf("loads reaching memory = %d, want 1 (after retries)", mem.loads)
	}
	if got := c.Stats().Instructions; got != 1 {
		t.Fatalf("retired = %d, want 1", got)
	}
}

func TestDoneAfterDrain(t *testing.T) {
	cfg := Config{IssueWidth: 2, RetireWidth: 2, ROBSize: 8}
	c := newCore(t, cfg, nonMem(10), &fakeMem{})
	if c.Done() {
		t.Fatal("Done before any work")
	}
	run(t, c, 100)
	if !c.Done() {
		t.Fatal("not Done after stream drained")
	}
	if got := c.Stats().Instructions; got != 10 {
		t.Fatalf("retired = %d, want 10", got)
	}
}

func TestROBLimitsOutstanding(t *testing.T) {
	cfg := Config{IssueWidth: 8, RetireWidth: 8, ROBSize: 4}
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = trace.Record{PC: 1, IsMem: true, Line: uint64(i)}
	}
	var outstanding, maxOutstanding int
	mem := &manualMem{onAccess: func(done func(ticks.T)) {
		outstanding++
		if outstanding > maxOutstanding {
			maxOutstanding = outstanding
		}
	}}
	c := newCore(t, cfg, recs, mem)
	for i := 0; i < 50; i++ {
		c.Tick(ticks.T(i))
	}
	if maxOutstanding > 4 {
		t.Fatalf("outstanding loads = %d, exceeds ROB size 4", maxOutstanding)
	}
}

type manualMem struct {
	onAccess func(done func(ticks.T))
}

func (m *manualMem) Access(line uint64, write bool, pc uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	m.onAccess(func(at ticks.T) { to.Complete(tag, at) }) // never completes: loads pile up
	return true
}

func TestAddressRelocation(t *testing.T) {
	cfg := Config{IssueWidth: 1, RetireWidth: 1, ROBSize: 4}
	recs := []trace.Record{{PC: 1, IsMem: true, Line: 5}}
	var seen uint64
	mem := &recordingMem{onLine: func(l uint64) { seen = l }}
	c, err := New(3, cfg, trace.NewSliceStream(recs), mem, 1000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, 10)
	if seen != 1005 {
		t.Fatalf("relocated line = %d, want 1005", seen)
	}
}

type recordingMem struct{ onLine func(uint64) }

func (m *recordingMem) Access(line uint64, write bool, pc uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	m.onLine(line)
	if to != nil {
		to.Complete(tag, now+1)
	}
	return true
}

func TestResetStats(t *testing.T) {
	cfg := DefaultConfig()
	c := newCore(t, cfg, nonMem(100), &fakeMem{})
	run(t, c, 10)
	if c.Stats().Instructions == 0 {
		t.Fatal("no progress before reset")
	}
	c.ResetStats()
	if s := c.Stats(); s.Instructions != 0 || s.Cycles != 0 {
		t.Fatalf("stats after reset = %+v, want zero", s)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Config{}, trace.NewSliceStream(nil), &fakeMem{}, 0, 1); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(0, DefaultConfig(), nil, &fakeMem{}, 0, 1); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := New(0, DefaultConfig(), trace.NewSliceStream(nil), nil, 0, 1); err == nil {
		t.Error("nil memory accepted")
	}
	if _, err := New(0, DefaultConfig(), trace.NewSliceStream(nil), &fakeMem{}, 0, 0); err == nil {
		t.Error("empty address space accepted")
	}
}

// loopStream replays a fixed record slice forever.
type loopStream struct {
	recs []trace.Record
	i    int
}

func (s *loopStream) Next() (trace.Record, bool) {
	r := s.recs[s.i]
	s.i = (s.i + 1) % len(s.recs)
	return r, true
}

// BenchmarkCoreDispatch ticks the paper's core on a fixed mix of 60%
// non-memory instructions, 30% loads and 10% stores over a memory that
// completes every load 40 cycles after issue and refuses 1 access in 16.
// One op is one core cycle.
func BenchmarkCoreDispatch(b *testing.B) {
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400000 + uint64(i%64)*4}
		switch i % 10 {
		case 0, 3, 6:
			recs[i].IsMem, recs[i].Line = true, uint64(i)*7
		case 9:
			recs[i].IsMem, recs[i].Write, recs[i].Line = true, true, uint64(i)*3
		}
	}
	mem := &refusingMem{latency: 40, every: 16}
	c, err := New(0, DefaultConfig(), &loopStream{recs: recs}, mem, 0, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(ticks.T(i))
	}
	b.ReportMetric(float64(c.Stats().Instructions)/float64(b.N), "inst/op")
}

// refusingMem completes loads after a fixed latency and refuses every
// every-th access.
type refusingMem struct {
	latency ticks.T
	every   int
	n       int
}

func (m *refusingMem) Access(_ uint64, _ bool, _ uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	m.n++
	if m.n%m.every == 0 {
		return false
	}
	if to != nil {
		to.Complete(tag, now+m.latency)
	}
	return true
}
