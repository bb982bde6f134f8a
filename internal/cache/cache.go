// Package cache implements the simulated cache hierarchy: set-associative
// caches with LRU or SRRIP replacement, MSHR-based miss handling with miss
// merging, write-back/write-allocate semantics, and an IP-stride prefetcher.
//
// Timing is functional: a lookup either completes at a computed future time
// (hit) or turns into a fetch from the next level whose completion time
// flows back through a ticks.Completer. All levels are single-threaded,
// driven by the core/engine clock.
package cache

import (
	"fmt"

	"pracsim/internal/ticks"
)

// Fetcher is anything that can supply cache lines: a lower cache level or
// the memory-controller adapter.
type Fetcher interface {
	// Fetch requests a line; an accepted fetch completes exactly once,
	// through to.Complete(tag, at) with the time the data is available,
	// possibly before Fetch returns. It reports false if the request
	// cannot be accepted right now (MSHRs or queues full) — the caller
	// must retry.
	Fetch(line uint64, now ticks.T, to ticks.Completer, tag uint64) bool

	// WriteBack hands a dirty line downstream. It reports false if the
	// request cannot be accepted right now.
	WriteBack(line uint64, now ticks.T) bool
}

// ReplKind selects the replacement policy.
type ReplKind int

const (
	// LRU evicts the least recently used way.
	LRU ReplKind = iota
	// SRRIP is static re-reference interval prediction (Jaleel et al.,
	// ISCA'10), the paper's LLC policy.
	SRRIP
)

// Config describes one cache level.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency ticks.T // lookup latency added on the hit path
	Repl    ReplKind
	MSHRs   int
}

// KB is a convenience for sizing caches in bytes.
const KB = 1024

// SetsFor computes the set count for a capacity/associativity/line size.
func SetsFor(capacityBytes, ways, lineBytes int) int {
	return capacityBytes / (ways * lineBytes)
}

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	MSHRMerges int64
	Writebacks int64
	Prefetches int64
	Stalls     int64 // rejected accesses (MSHR/downstream full)
}

// line packs into 24 bytes: the two words first, then the flags.
type line struct {
	tag   uint64
	lru   uint64
	valid bool
	dirty bool
	rrpv  uint8
}

// mshr is one entry of a cache's fixed miss table. Its waiters slice is
// reused across the misses the entry serves.
type mshr struct {
	line    uint64
	waiters []waiter
	write   bool // at least one merged request was a store
}

// waiter is a merged requester to complete when the line arrives.
type waiter struct {
	to  ticks.Completer
	tag uint64
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg      Config
	sets     [][]line // a set is allocated on first touch; see setOf
	setShift uint     // log2(Sets): a line's tag is lineAddr >> setShift
	next     Fetcher

	// The miss table: cfg.MSHRs entries allocated up front, a free list
	// of their indexes, and the in-flight lines' entries by address.
	mshrs   []mshr
	free    []int32
	pending map[uint64]int32
	lruTick uint64

	prefetcher *IPStride

	stats Stats
}

const srripMax = 3 // 2-bit RRPV

// New builds a cache level over the given downstream fetcher.
func New(cfg Config, next Fetcher) (*Cache, error) {
	switch {
	case next == nil:
		return nil, fmt.Errorf("cache %s: downstream fetcher required", cfg.Name)
	case cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0:
		return nil, fmt.Errorf("cache %s: sets (%d) must be a positive power of two", cfg.Name, cfg.Sets)
	case cfg.Ways <= 0:
		return nil, fmt.Errorf("cache %s: ways must be positive", cfg.Name)
	case cfg.MSHRs <= 0:
		return nil, fmt.Errorf("cache %s: MSHRs must be positive", cfg.Name)
	case cfg.Latency < 0:
		return nil, fmt.Errorf("cache %s: negative latency", cfg.Name)
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, cfg.Sets),
		setShift: uintLog2(cfg.Sets),
		next:     next,
		mshrs:    make([]mshr, cfg.MSHRs),
		free:     make([]int32, cfg.MSHRs),
		pending:  make(map[uint64]int32, cfg.MSHRs),
	}
	for i := range c.free {
		// Pop order hands out index 0 first.
		c.free[i] = int32(cfg.MSHRs - 1 - i)
	}
	return c, nil
}

// AttachIPStride enables an IP-stride prefetcher on this level.
func (c *Cache) AttachIPStride(tableSize, degree int) error {
	p, err := NewIPStride(tableSize, degree)
	if err != nil {
		return err
	}
	c.prefetcher = p
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// InFlight reports how many MSHRs are occupied by outstanding fetches.
func (c *Cache) InFlight() int { return len(c.mshrs) - len(c.free) }

// NextWork implements the demand-driven clocking protocol for the cache
// hierarchy: caches are purely reactive — every lookup, fill and
// writeback runs inside the caller's cycle, and completions are delivered
// through Completers — so a cache never schedules work of its own and is
// always quiescent from the clock's point of view. Outstanding MSHRs
// (see InFlight) are the downstream clock domain's work, not this one's.
func (c *Cache) NextWork(ticks.T) ticks.T { return ticks.Never }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// setOf returns the set holding lineAddr, allocating it on first touch:
// a short run touches a fraction of an 8 MB LLC's sets, and concurrent
// simulations would otherwise each hold every set live.
func (c *Cache) setOf(lineAddr uint64) []line {
	i := lineAddr & uint64(c.cfg.Sets-1)
	if c.sets[i] == nil {
		c.sets[i] = make([]line, c.cfg.Ways)
	}
	return c.sets[i]
}
func (c *Cache) tagOf(lineAddr uint64) uint64 { return lineAddr >> c.setShift }

// victimAddr rebuilds the address of a resident line from its tag and the
// set index it shares with lineAddr.
func (c *Cache) victimAddr(l *line, lineAddr uint64) uint64 {
	return l.tag<<c.setShift | (lineAddr & uint64(c.cfg.Sets-1))
}

func uintLog2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}

// Access performs a demand access from above (core or upper level). pc is
// the accessing instruction's address, used by the prefetcher. It reports
// false if the access cannot be accepted right now. An accepted access
// with a non-nil to completes exactly once, through to.Complete(tag, at);
// a hit completes before Access returns.
func (c *Cache) Access(lineAddr uint64, write bool, pc uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	ok := c.access(lineAddr, write, now, to, tag, false)
	if ok && c.prefetcher != nil {
		for _, target := range c.prefetcher.Observe(pc, lineAddr) {
			if c.access(target, false, now, nil, 0, true) {
				c.stats.Prefetches++
			}
		}
	}
	return ok
}

func (c *Cache) access(lineAddr uint64, write bool, now ticks.T, to ticks.Completer, tag uint64, prefetch bool) bool {
	set := c.setOf(lineAddr)
	lineTag := c.tagOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineTag {
			c.touch(&set[i])
			if write {
				set[i].dirty = true
			}
			if !prefetch {
				c.stats.Hits++
			}
			if to != nil {
				to.Complete(tag, now+c.cfg.Latency)
			}
			return true
		}
	}
	idx, pending := c.pending[lineAddr]
	if prefetch && (pending || len(c.free) == 0) {
		// Prefetches are best-effort: drop rather than stall.
		return false
	}
	// Miss: merge into an existing MSHR if the line is already in flight.
	if pending {
		m := &c.mshrs[idx]
		if to != nil {
			m.waiters = append(m.waiters, waiter{to, tag})
		}
		m.write = m.write || write
		if !prefetch {
			c.stats.Misses++
			c.stats.MSHRMerges++
		}
		return true
	}
	if len(c.free) == 0 {
		c.stats.Stalls++
		return false
	}
	idx = c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	m := &c.mshrs[idx]
	m.line, m.write = lineAddr, write
	if to != nil {
		m.waiters = append(m.waiters, waiter{to, tag})
	}
	// Register before fetching: a downstream hit may complete (and fill)
	// synchronously, and fill must find the MSHR it is retiring.
	c.pending[lineAddr] = idx
	if !c.next.Fetch(lineAddr, now+c.cfg.Latency, c, uint64(idx)) {
		delete(c.pending, lineAddr)
		c.release(idx)
		c.stats.Stalls++
		return false
	}
	if !prefetch {
		c.stats.Misses++
	}
	return true
}

// Complete implements ticks.Completer for the cache's own downstream
// fetches: tag is the index of the MSHR the fetch retires. It installs
// the line, evicting (and writing back) as needed, then wakes all merged
// waiters.
func (c *Cache) Complete(tag uint64, at ticks.T) {
	idx := int32(tag)
	m := &c.mshrs[idx]
	lineAddr := m.line
	// The line leaves the index before the waiters run, but the entry
	// (and its waiters slice) is freed only after they have run.
	delete(c.pending, lineAddr)
	set := c.setOf(lineAddr)
	victim := c.pickVictim(set)
	if victim.valid && victim.dirty {
		// The victim shares the incoming line's set index.
		if !c.next.WriteBack(c.victimAddr(victim, lineAddr), at) {
			// Caches always accept writebacks and the MC adapter
			// buffers them, so a refusal is a wiring bug, not a
			// runtime condition to absorb.
			panic(fmt.Sprintf("cache %s: writeback refused by downstream", c.cfg.Name))
		}
		c.stats.Writebacks++
	}
	victim.valid = true
	victim.dirty = m.write
	victim.tag = c.tagOf(lineAddr)
	c.insertMeta(victim)
	for _, w := range m.waiters {
		w.to.Complete(w.tag, at+c.cfg.Latency)
	}
	c.release(idx)
}

// release clears an MSHR's waiters, keeping their storage, and returns it
// to the free list.
func (c *Cache) release(idx int32) {
	m := &c.mshrs[idx]
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	c.free = append(c.free, idx)
}

// touch updates replacement metadata on a hit.
func (c *Cache) touch(l *line) {
	switch c.cfg.Repl {
	case LRU:
		c.lruTick++
		l.lru = c.lruTick
	case SRRIP:
		l.rrpv = 0
	}
}

// insertMeta initializes replacement metadata on fill.
func (c *Cache) insertMeta(l *line) {
	switch c.cfg.Repl {
	case LRU:
		c.lruTick++
		l.lru = c.lruTick
	case SRRIP:
		l.rrpv = srripMax - 1 // long re-reference prediction on insert
	}
}

// pickVictim chooses the way to replace in a set.
func (c *Cache) pickVictim(set []line) *line {
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	switch c.cfg.Repl {
	case LRU:
		victim := &set[0]
		for i := 1; i < len(set); i++ {
			if set[i].lru < victim.lru {
				victim = &set[i]
			}
		}
		return victim
	case SRRIP:
		for {
			for i := range set {
				if set[i].rrpv >= srripMax {
					return &set[i]
				}
			}
			for i := range set {
				set[i].rrpv++
			}
		}
	default:
		panic("cache: unknown replacement policy")
	}
}

// Fetch implements Fetcher, letting caches stack: an upper level's miss is
// a demand access here without prefetcher involvement.
func (c *Cache) Fetch(lineAddr uint64, now ticks.T, to ticks.Completer, tag uint64) bool {
	return c.access(lineAddr, false, now, to, tag, false)
}

// WriteBack implements Fetcher: a dirty line arriving from above is
// installed dirty (allocating if needed). Writebacks are accepted
// unconditionally; if the line must be fetched space, it is installed
// without a downstream read since the data arrives complete.
func (c *Cache) WriteBack(lineAddr uint64, now ticks.T) bool {
	set := c.setOf(lineAddr)
	tag := c.tagOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			c.touch(&set[i])
			return true
		}
	}
	victim := c.pickVictim(set)
	if victim.valid && victim.dirty {
		if !c.next.WriteBack(c.victimAddr(victim, lineAddr), now) {
			panic(fmt.Sprintf("cache %s: writeback refused by downstream", c.cfg.Name))
		}
		c.stats.Writebacks++
	}
	victim.valid = true
	victim.dirty = true
	victim.tag = tag
	c.insertMeta(victim)
	return true
}
