package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"pracsim/internal/ticks"
)

// fakeMem is a downstream Fetcher with fixed latency.
type fakeMem struct {
	latency    ticks.T
	fetches    []uint64
	writebacks []uint64
	refuse     bool
}

func (f *fakeMem) Fetch(line uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	if f.refuse {
		return false
	}
	f.fetches = append(f.fetches, line)
	to.Complete(tag, now+f.latency)
	return true
}

func (f *fakeMem) WriteBack(line uint64, now ticks.T) bool {
	if f.refuse {
		return false
	}
	f.writebacks = append(f.writebacks, line)
	return true
}

func smallCache(t *testing.T, repl ReplKind, next Fetcher) *Cache {
	t.Helper()
	c, err := New(Config{Name: "test", Sets: 4, Ways: 2, Latency: 20, Repl: repl, MSHRs: 4}, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// An 8 MB LLC-shaped level holds no lines until they are touched: only
// the set table (24 bytes per set) is allocated up front.
func TestNewAllocatesSetsLazily(t *testing.T) {
	cfg := Config{Name: "llc", Sets: SetsFor(8*1024*KB, 16, 64), Ways: 16, Latency: 20, Repl: SRRIP, MSHRs: 256}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(cfg, &fakeMem{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(cfg.Sets*24+64*KB); got > limit {
		t.Errorf("New allocated %d bytes, want at most %d (no lines before first touch)", got, limit)
	}
	runtime.KeepAlive(c)
}

func TestMissThenHit(t *testing.T) {
	mem := &fakeMem{latency: 400}
	c := smallCache(t, LRU, mem)
	var first, second ticks.T
	if !c.Access(100, false, 0, 0, ticks.CompleteFunc(func(at ticks.T) { first = at }), 0) {
		t.Fatal("access refused")
	}
	if first != 20+400+20 {
		t.Fatalf("miss completion = %v, want lookup+mem+fill = 440", first)
	}
	if !c.Access(100, false, 0, first, ticks.CompleteFunc(func(at ticks.T) { second = at }), 0) {
		t.Fatal("access refused")
	}
	if second != first+20 {
		t.Fatalf("hit completion = %v, want %v", second, first+20)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", s.Hits, s.Misses)
	}
	if len(mem.fetches) != 1 {
		t.Fatalf("memory fetches = %d, want 1", len(mem.fetches))
	}
}

func TestMSHRMerging(t *testing.T) {
	mem := &fakeMem{latency: 400}
	// Delay the fill so both accesses overlap: use a manual fill control.
	var fill func(ticks.T)
	manual := &manualMem{onFetch: func(line uint64, now ticks.T, done func(ticks.T)) bool {
		fill = done
		return true
	}}
	c := smallCache(t, LRU, manual)
	done1, done2 := ticks.T(0), ticks.T(0)
	c.Access(7, false, 0, 0, ticks.CompleteFunc(func(at ticks.T) { done1 = at }), 0)
	c.Access(7, false, 0, 1, ticks.CompleteFunc(func(at ticks.T) { done2 = at }), 0)
	if got := c.Stats().MSHRMerges; got != 1 {
		t.Fatalf("MSHRMerges = %d, want 1", got)
	}
	if len(manual.fetched) != 1 {
		t.Fatalf("downstream fetches = %d, want 1 (merged)", len(manual.fetched))
	}
	fill(500)
	if done1 == 0 || done2 == 0 {
		t.Fatal("merged waiters not woken on fill")
	}
	_ = mem
}

type manualMem struct {
	onFetch func(uint64, ticks.T, func(ticks.T)) bool
	fetched []uint64
	wbs     []uint64
}

func (m *manualMem) Fetch(line uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	ok := m.onFetch(line, now, func(at ticks.T) { to.Complete(tag, at) })
	if ok {
		m.fetched = append(m.fetched, line)
	}
	return ok
}
func (m *manualMem) WriteBack(line uint64, now ticks.T) bool {
	m.wbs = append(m.wbs, line)
	return true
}

func TestMSHRLimitStalls(t *testing.T) {
	manual := &manualMem{onFetch: func(uint64, ticks.T, func(ticks.T)) bool { return true }}
	c, err := New(Config{Name: "t", Sets: 4, Ways: 2, Latency: 1, Repl: LRU, MSHRs: 2}, manual)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Access(1, false, 0, 0, ticks.CompleteFunc(func(ticks.T) {}), 0) {
		t.Fatal("first miss refused")
	}
	if !c.Access(2, false, 0, 0, ticks.CompleteFunc(func(ticks.T) {}), 0) {
		t.Fatal("second miss refused")
	}
	if c.Access(3, false, 0, 0, ticks.CompleteFunc(func(ticks.T) {}), 0) {
		t.Fatal("third miss accepted beyond MSHR limit")
	}
	if c.Stats().Stalls == 0 {
		t.Fatal("stall not counted")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem) // 4 sets, 2 ways
	// Three lines mapping to set 0: 0, 4, 8 (sets=4).
	c.Access(0, true, 0, 0, ticks.CompleteFunc(func(ticks.T) {}), 0) // dirty
	c.Access(4, false, 0, 100, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(8, false, 0, 200, ticks.CompleteFunc(func(ticks.T) {}), 0) // evicts line 0 (LRU, dirty)
	if len(mem.writebacks) != 1 || mem.writebacks[0] != 0 {
		t.Fatalf("writebacks = %v, want [0]", mem.writebacks)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks stat = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	c.Access(0, false, 0, 0, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(4, false, 0, 100, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(8, false, 0, 200, ticks.CompleteFunc(func(ticks.T) {}), 0)
	if len(mem.writebacks) != 0 {
		t.Fatalf("clean eviction produced writebacks: %v", mem.writebacks)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	c.Access(0, false, 0, 0, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(4, false, 0, 100, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(0, false, 0, 200, ticks.CompleteFunc(func(ticks.T) {}), 0) // refresh line 0
	c.Access(8, false, 0, 300, ticks.CompleteFunc(func(ticks.T) {}), 0) // must evict 4, not 0
	hitsBefore := c.Stats().Hits
	c.Access(0, false, 0, 400, ticks.CompleteFunc(func(ticks.T) {}), 0)
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatal("line 0 evicted despite recent use")
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, SRRIP, mem)
	c.Access(0, false, 0, 0, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(4, false, 0, 100, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(0, false, 0, 200, ticks.CompleteFunc(func(ticks.T) {}), 0) // rrpv(0) -> 0
	c.Access(8, false, 0, 300, ticks.CompleteFunc(func(ticks.T) {}), 0) // should evict 4 (rrpv 2)
	hitsBefore := c.Stats().Hits
	c.Access(0, false, 0, 400, ticks.CompleteFunc(func(ticks.T) {}), 0)
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatal("SRRIP evicted the re-referenced line")
	}
}

func TestWriteAllocate(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	done := ticks.T(0)
	c.Access(3, true, 0, 0, ticks.CompleteFunc(func(at ticks.T) { done = at }), 0)
	if done == 0 {
		t.Fatal("write miss never completed")
	}
	if len(mem.fetches) != 1 {
		t.Fatalf("write miss fetches = %d, want 1 (write-allocate)", len(mem.fetches))
	}
	// Evict it: must write back because the fill was for a store.
	c.Access(7, false, 0, 100, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(11, false, 0, 200, ticks.CompleteFunc(func(ticks.T) {}), 0)
	if len(mem.writebacks) != 1 {
		t.Fatalf("writebacks = %v, want the stored line", mem.writebacks)
	}
}

func TestWriteBackIntoCacheInstallsDirty(t *testing.T) {
	mem := &fakeMem{latency: 10}
	c := smallCache(t, LRU, mem)
	if !c.WriteBack(5, 0) {
		t.Fatal("WriteBack refused")
	}
	// Hit it and evict it; it must reach memory exactly once.
	c.Access(1, false, 0, 50, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(9, false, 0, 100, ticks.CompleteFunc(func(ticks.T) {}), 0)
	c.Access(13, false, 0, 150, ticks.CompleteFunc(func(ticks.T) {}), 0)
	found := false
	for _, wb := range mem.writebacks {
		if wb == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("writebacks = %v, want to include line 5", mem.writebacks)
	}
}

func TestStackedLevels(t *testing.T) {
	mem := &fakeMem{latency: 400}
	l2, err := New(Config{Name: "l2", Sets: 16, Ways: 4, Latency: 40, Repl: LRU, MSHRs: 8}, mem)
	if err != nil {
		t.Fatal(err)
	}
	l1 := smallCache(t, LRU, l2)
	var at ticks.T
	l1.Access(42, false, 0, 0, ticks.CompleteFunc(func(a ticks.T) { at = a }), 0)
	if at != 20+40+400+40+20 {
		t.Fatalf("two-level miss completion = %v, want 520", at)
	}
	at = 0
	l1.Access(42, false, 0, 1000, ticks.CompleteFunc(func(a ticks.T) { at = a }), 0)
	if at != 1020 {
		t.Fatalf("L1 hit = %v, want 1020", at)
	}
	// Evict 42 from tiny L1; L2 should still hold it.
	l1.Access(46, false, 0, 2000, ticks.CompleteFunc(func(ticks.T) {}), 0)
	l1.Access(50, false, 0, 3000, ticks.CompleteFunc(func(ticks.T) {}), 0)
	at = 0
	l1.Access(42, false, 0, 4000, ticks.CompleteFunc(func(a ticks.T) { at = a }), 0)
	if at != 4000+20+40+20 {
		t.Fatalf("L2 hit completion = %v, want 4080", at)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	mem := &fakeMem{}
	if _, err := New(Config{Name: "x", Sets: 3, Ways: 1, MSHRs: 1}, mem); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(Config{Name: "x", Sets: 4, Ways: 0, MSHRs: 1}, mem); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{Name: "x", Sets: 4, Ways: 1, MSHRs: 0}, mem); err == nil {
		t.Error("zero MSHRs accepted")
	}
	if _, err := New(Config{Name: "x", Sets: 4, Ways: 1, MSHRs: 1}, nil); err == nil {
		t.Error("nil downstream accepted")
	}
}

func TestIPStrideDetectsStride(t *testing.T) {
	p, err := NewIPStride(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400100)
	var got []uint64
	for i := uint64(0); i < 5; i++ {
		got = p.Observe(pc, 100+i*3)
	}
	if len(got) != 2 || got[0] != 112+3 || got[1] != 112+6 {
		t.Fatalf("prefetch targets = %v, want [115 118]", got)
	}
}

func TestIPStrideIgnoresIrregular(t *testing.T) {
	p, err := NewIPStride(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400100)
	seq := []uint64{10, 90, 17, 4, 1000}
	var got []uint64
	for _, l := range seq {
		got = p.Observe(pc, l)
	}
	if len(got) != 0 {
		t.Fatalf("irregular stream produced prefetches: %v", got)
	}
}

func TestIPStrideRejectsBadConfig(t *testing.T) {
	if _, err := NewIPStride(0, 1); err == nil {
		t.Error("zero table accepted")
	}
	if _, err := NewIPStride(63, 1); err == nil {
		t.Error("non-power-of-two table accepted")
	}
	if _, err := NewIPStride(64, 0); err == nil {
		t.Error("zero degree accepted")
	}
}

func TestPrefetcherFillsAhead(t *testing.T) {
	mem := &fakeMem{latency: 100}
	c, err := New(Config{Name: "l1", Sets: 64, Ways: 4, Latency: 10, Repl: LRU, MSHRs: 8}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachIPStride(64, 2); err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400200)
	now := ticks.T(0)
	for i := uint64(0); i < 8; i++ {
		c.Access(200+i, false, pc, now, ticks.CompleteFunc(func(ticks.T) {}), 0)
		now += 500
	}
	if c.Stats().Prefetches == 0 {
		t.Fatal("unit-stride stream triggered no prefetches")
	}
	// Later lines should now hit thanks to prefetching.
	hitsBefore := c.Stats().Hits
	c.Access(208, false, pc, now, ticks.CompleteFunc(func(ticks.T) {}), 0)
	if c.Stats().Hits != hitsBefore+1 {
		t.Error("prefetched line 208 was not a hit")
	}
}

// Property: a cache never loses dirty data — every store is eventually
// visible as either a resident dirty line or a downstream writeback.
func TestNoDirtyDataLossProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := &fakeMem{latency: 10}
		c, err := New(Config{Name: "p", Sets: 4, Ways: 2, Latency: 1, Repl: LRU, MSHRs: 64}, mem)
		if err != nil {
			return false
		}
		stored := map[uint64]bool{}
		now := ticks.T(0)
		for i := 0; i < int(n)+1; i++ {
			line := uint64(rng.Intn(32))
			write := rng.Intn(2) == 0
			if write {
				stored[line] = true
			}
			c.Access(line, write, 0, now, ticks.CompleteFunc(func(ticks.T) {}), 0)
			now += 100
		}
		// Flush by thrashing every set with clean lines.
		for line := uint64(1000); line < 1000+64; line++ {
			c.Access(line, false, 0, now, ticks.CompleteFunc(func(ticks.T) {}), 0)
			now += 100
		}
		wb := map[uint64]bool{}
		for _, l := range mem.writebacks {
			wb[l] = true
		}
		for line := range stored {
			if !wb[line] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// pendingFetcher accepts fetches but never completes them.
type pendingFetcher struct{ done []func(ticks.T) }

func (p *pendingFetcher) Fetch(line uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	p.done = append(p.done, func(at ticks.T) { to.Complete(tag, at) })
	return true
}
func (p *pendingFetcher) WriteBack(uint64, ticks.T) bool { return true }

// TestCacheIsAlwaysQuiescent pins the cache's role in the demand-driven
// clocking protocol: it never schedules work of its own, even with
// fetches outstanding — those belong to the downstream clock domain.
func TestCacheIsAlwaysQuiescent(t *testing.T) {
	next := &pendingFetcher{}
	c := smallCache(t, LRU, next)
	if got := c.NextWork(0); got != ticks.Never {
		t.Fatalf("NextWork = %v on an empty cache, want Never", got)
	}
	if !c.Access(1, false, 0, 0, ticks.CompleteFunc(func(ticks.T) {}), 0) {
		t.Fatal("access refused")
	}
	if got := c.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	if got := c.NextWork(5); got != ticks.Never {
		t.Fatalf("NextWork = %v with an outstanding fetch, want Never", got)
	}
	next.done[0](100)
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after fill, want 0", got)
	}
}

// completion is one Complete call seen by a recorder.
type completion struct {
	tag uint64
	at  ticks.T
}

// recorder is a Completer that logs every completion it receives.
type recorder struct{ got []completion }

func (r *recorder) Complete(tag uint64, at ticks.T) { r.got = append(r.got, completion{tag, at}) }

// A refused downstream Fetch must hand its MSHR back: after any number
// of refusals the table is empty and still admits cfg.MSHRs misses.
func TestRefusedFetchFreesMSHR(t *testing.T) {
	refuse := true
	manual := &manualMem{onFetch: func(uint64, ticks.T, func(ticks.T)) bool { return !refuse }}
	c, err := New(Config{Name: "t", Sets: 4, Ways: 2, Latency: 1, Repl: LRU, MSHRs: 2}, manual)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	for i := uint64(0); i < 5; i++ {
		if c.Access(i, false, 0, 0, rec, i) {
			t.Fatalf("miss %d accepted while downstream refuses", i)
		}
		if got := c.InFlight(); got != 0 {
			t.Fatalf("InFlight = %d after refused fetch %d, want 0", got, i)
		}
	}
	if got := c.Stats().Stalls; got != 5 {
		t.Fatalf("Stalls = %d, want 5", got)
	}
	refuse = false
	for i := uint64(10); i < 12; i++ {
		if !c.Access(i, false, 0, 0, rec, i) {
			t.Fatalf("miss %d refused with a free MSHR", i)
		}
	}
	if got := c.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want all 2 MSHRs busy", got)
	}
	if c.Access(12, false, 0, 0, rec, 12) {
		t.Fatal("miss accepted beyond the MSHR limit")
	}
	if len(rec.got) != 0 {
		t.Fatalf("completions %v for fetches that never returned", rec.got)
	}
}

// A downstream hit completes inside Fetch, before access has returned:
// the fill must find its MSHR, deliver the data once and free the slot,
// so a one-MSHR cache keeps accepting misses.
func TestSynchronousDownstreamFill(t *testing.T) {
	mem := &fakeMem{latency: 100}
	c, err := New(Config{Name: "t", Sets: 4, Ways: 2, Latency: 10, Repl: LRU, MSHRs: 1}, mem)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	for i := uint64(0); i < 6; i++ {
		now := ticks.T(i) * 1000
		if !c.Access(i, i%2 == 0, 0, now, rec, i) {
			t.Fatalf("miss %d refused by a cache with no fetch outstanding", i)
		}
		want := completion{i, now + 10 + 100 + 10}
		if n := len(rec.got); n != int(i)+1 || rec.got[n-1] != want {
			t.Fatalf("after miss %d completions = %v, want last %v", i, rec.got, want)
		}
		if got := c.InFlight(); got != 0 {
			t.Fatalf("InFlight = %d after synchronous fill, want 0", got)
		}
	}
	hits := c.Stats().Hits
	if !c.Access(5, false, 0, 9000, rec, 99) || c.Stats().Hits != hits+1 {
		t.Fatal("synchronously filled line is not resident")
	}
	// Stores 0 and 4 fill set 0, so bringing in 8 writes one of them back.
	c.Access(8, false, 0, 10000, rec, 100)
	if len(mem.writebacks) == 0 {
		t.Fatal("dirty synchronously filled line was not written back")
	}
}

// Every merged waiter completes exactly once, with its own tag, at the
// fill time plus the lookup latency; a slot reused for another line
// carries none of the old waiters.
func TestMergedWaitersCompleteOnce(t *testing.T) {
	var fills []func(ticks.T)
	manual := &manualMem{onFetch: func(_ uint64, _ ticks.T, done func(ticks.T)) bool {
		fills = append(fills, done)
		return true
	}}
	c, err := New(Config{Name: "t", Sets: 4, Ways: 2, Latency: 20, Repl: LRU, MSHRs: 1}, manual)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &recorder{}, &recorder{}
	c.Access(7, false, 0, 0, a, 1)
	c.Access(7, true, 0, 3, b, 2)
	c.Access(7, false, 0, 5, a, 3)
	c.Access(7, true, 0, 6, nil, 0) // a posted store merges without a waiter
	if len(fills) != 1 {
		t.Fatalf("downstream fetches = %d, want 1", len(fills))
	}
	if got := c.Stats().MSHRMerges; got != 3 {
		t.Fatalf("MSHRMerges = %d, want 3", got)
	}
	fills[0](500)
	wantA := []completion{{1, 520}, {3, 520}}
	wantB := []completion{{2, 520}}
	if !equalCompletions(a.got, wantA) || !equalCompletions(b.got, wantB) {
		t.Fatalf("completions a=%v b=%v, want a=%v b=%v", a.got, b.got, wantA, wantB)
	}
	// The single MSHR now serves another line with one waiter only.
	c.Access(11, false, 0, 600, b, 4)
	fills[1](900)
	wantB = append(wantB, completion{4, 920})
	if !equalCompletions(a.got, wantA) || !equalCompletions(b.got, wantB) {
		t.Fatalf("after reuse a=%v b=%v, want a=%v b=%v", a.got, b.got, wantA, wantB)
	}
	// The merged store made line 7 dirty.
	c.Access(3, false, 0, 1000, nil, 0)
	fills[2](1100)
	if len(manual.wbs) != 1 || manual.wbs[0] != 7 {
		t.Fatalf("writebacks = %v, want [7] from the merged store", manual.wbs)
	}
}

func equalCompletions(a, b []completion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// delayedMem completes fetches latency after issue, when drained, in
// issue order. Its queue is reused, so once warm it allocates nothing.
type delayedMem struct {
	latency ticks.T
	queue   []delayedFetch
}

type delayedFetch struct {
	to  ticks.Completer
	tag uint64
	at  ticks.T
}

func (d *delayedMem) Fetch(_ uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	d.queue = append(d.queue, delayedFetch{to, tag, now + d.latency})
	return true
}

func (d *delayedMem) WriteBack(uint64, ticks.T) bool { return true }

func (d *delayedMem) drain() {
	for _, f := range d.queue {
		f.to.Complete(f.tag, f.at)
	}
	d.queue = d.queue[:0]
}

// counter is a Completer that counts completions.
type counter struct{ n int }

func (c *counter) Complete(uint64, ticks.T) { c.n++ }

// hierarchy is an L1 (with an IP-stride prefetcher) over an L2 over an
// LLC over a delayedMem.
type hierarchy struct {
	l1, l2, llc *Cache
	mem         *delayedMem
}

func newHierarchy(tb testing.TB, l1, l2, llc Config) *hierarchy {
	tb.Helper()
	h := &hierarchy{mem: &delayedMem{latency: 400}}
	var err error
	if h.llc, err = New(llc, h.mem); err != nil {
		tb.Fatal(err)
	}
	if h.l2, err = New(l2, h.llc); err != nil {
		tb.Fatal(err)
	}
	if h.l1, err = New(l1, h.l2); err != nil {
		tb.Fatal(err)
	}
	if err := h.l1.AttachIPStride(64, 2); err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestHierarchyAllocFree is the allocation guard for the request path:
// once sets, MSHR waiter lists and index maps are warm, L1→L2→LLC misses,
// merges, fills, dirty evictions and prefetches allocate nothing.
func TestHierarchyAllocFree(t *testing.T) {
	h := newHierarchy(t,
		Config{Name: "l1", Sets: 4, Ways: 2, Latency: 5, Repl: LRU, MSHRs: 4},
		Config{Name: "l2", Sets: 8, Ways: 2, Latency: 10, Repl: LRU, MSHRs: 8},
		Config{Name: "llc", Sets: 16, Ways: 4, Latency: 20, Repl: SRRIP, MSHRs: 16})
	req := &counter{}
	now := ticks.T(0)
	pass := func() {
		for i := uint64(0); i < 96; i++ {
			line := i * 7 % 160
			pc := 0x400000 + i%3*4
			// The repeat merges into the first access's MSHR.
			h.l1.Access(line, i%5 == 0, pc, now, req, i)
			h.l1.Access(line, false, pc, now+1, req, i)
			if i%4 == 3 {
				h.mem.drain()
			}
			now += 10
		}
		h.mem.drain()
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if s := h.l1.Stats(); s.Misses == 0 || s.MSHRMerges == 0 || s.Writebacks == 0 || s.Prefetches == 0 {
		t.Fatalf("L1 stats %+v: the pass must miss, merge, write back and prefetch", s)
	}
	if s := h.llc.Stats(); s.Misses == 0 {
		t.Fatalf("LLC stats %+v: the pass must reach memory", s)
	}
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("a warm hierarchy pass allocates %v objects, want 0", allocs)
	}
}

// BenchmarkCacheHierarchy runs the paper's L1 and L2 and one core's 2 MB
// share of the LLC on a synthetic miss mix: 3 of 4 accesses go to a
// 2048-line hot set (L2 resident), the rest are uniform over 64k lines
// (twice the LLC), 1 in 8 is a store, and memory returns data 400 ticks
// later, drained every 8 accesses. One op is one L1 access.
func BenchmarkCacheHierarchy(b *testing.B) {
	h := newHierarchy(b,
		Config{Name: "l1", Sets: SetsFor(48*KB, 12, 64), Ways: 12, Latency: 5, Repl: LRU, MSHRs: 16},
		Config{Name: "l2", Sets: SetsFor(512*KB, 8, 64), Ways: 8, Latency: 10, Repl: LRU, MSHRs: 64},
		Config{Name: "llc", Sets: SetsFor(2*1024*KB, 16, 64), Ways: 16, Latency: 20, Repl: SRRIP, MSHRs: 64})
	req := &counter{}
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 14
	lines := make([]uint64, n)
	for i := range lines {
		if i%4 == 3 {
			lines[i] = uint64(rng.Intn(1 << 16))
		} else {
			lines[i] = 1<<20 + uint64(rng.Intn(2048))
		}
	}
	now := ticks.T(0)
	step := func(i int) {
		h.l1.Access(lines[i%n], i%8 == 0, 0x400000+uint64(i%16)*4, now, req, uint64(i))
		if i%8 == 7 {
			h.mem.drain()
		}
		now += 4
	}
	for i := 0; i < 4*n; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
