package memctrl

import (
	"fmt"

	"pracsim/internal/dram"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
)

// CyclePeriod is the controller clock: one DRAM command slot per nanosecond.
const CyclePeriod = ticks.T(4)

// Request is one cache-line transfer presented to the controller.
// Enqueue copies it into storage the controller owns, so the caller may
// reuse or discard its Request as soon as Enqueue returns.
type Request struct {
	// Line is the physical cache-line index (address / line size); the
	// controller's address mapper turns it into a bank/row/column.
	Line  uint64
	Write bool

	// Done, if non-nil, receives Done.Complete(Tag, at) when read data
	// has fully transferred (writes are posted and complete on enqueue).
	Done ticks.Completer
	Tag  uint64

	arrive ticks.T
	loc    Loc
	missed bool
}

// Config parameterizes the controller.
type Config struct {
	ReadQueueCap  int
	WriteQueueCap int
	WriteHi       int // start draining writes at this occupancy
	WriteLo       int // stop draining at this occupancy
	FRFCFSCap     int // max row hits served over an older conflicting request
	TREFEvery     int // every k-th refresh is a Targeted Refresh (0 = off)
	NoRefresh     bool
}

// DefaultConfig matches the paper's Table 3 controller: FR-FCFS with a cap
// of 4, and targeted refreshes disabled unless an experiment enables them.
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:  64,
		WriteQueueCap: 64,
		WriteHi:       48,
		WriteLo:       16,
		FRFCFSCap:     4,
	}
}

// Stats counts controller activity.
type Stats struct {
	Reads        int64
	Writes       int64
	RowHits      int64
	RowMisses    int64
	ABORFMs      int64 // RFMs issued to service Alert Back-Off
	PolicyRFMs   int64 // proactive RFMs (ACB or TB-RFM)
	Refreshes    int64
	TREFs        int64
	ReadLatency  ticks.T // cumulative arrive-to-data latency
	WriteForward int64
}

// Controller owns one DRAM channel.
type Controller struct {
	cfg    Config
	mod    *dram.Module
	dcfg   dram.Config // the module's configuration, fixed once it is built
	mapper AddressMapper
	policy mitigation.Policy

	// The queues point into storage the controller owns: one entry per
	// queue slot, allocated in New, with the unused ones on free.
	readQ  []*Request
	writeQ []*Request
	free   []*Request

	draining bool

	// Refresh state, per rank.
	nextRefAt []ticks.T
	refDebt   []int
	refCount  []int64
	trefSeen  int

	// RFM state.
	rfmPending int   // proactive RFMs waiting for the channel to drain
	pbPending  []int // banks with a pending per-bank RFM
	aboRFMs    int   // Alert-servicing RFMs waiting
	aboQueued  bool
	aboBudget  int
	aboDeadln  ticks.T

	hitStreak []int
	// triedBank is issueFrom's per-call "bank already considered" scratch,
	// stamped with triedGen so resetting it is one counter increment
	// instead of an O(banks) clear per call.
	triedBank []uint64
	triedGen  uint64

	// writeLines counts in-flight writes per line address, so read-after-
	// write forwarding in Enqueue is a map probe instead of an O(n) scan
	// of the write queue.
	writeLines map[uint64]int

	// waker, when set, is called as a request lands in an empty controller
	// (see SetWaker) so a demand-driven clock can resume ticking.
	waker func(now ticks.T)

	stats Stats
}

// New builds a controller over a DRAM module.
func New(cfg Config, mod *dram.Module, mapper AddressMapper, policy mitigation.Policy) (*Controller, error) {
	if mod == nil || mapper == nil || policy == nil {
		return nil, fmt.Errorf("memctrl: module, mapper and policy are required")
	}
	if cfg.ReadQueueCap <= 0 || cfg.WriteQueueCap <= 0 {
		return nil, fmt.Errorf("memctrl: queue capacities must be positive: %+v", cfg)
	}
	if cfg.FRFCFSCap <= 0 {
		return nil, fmt.Errorf("memctrl: FR-FCFS cap must be positive: %+v", cfg)
	}
	dcfg := mod.Config()
	org := dcfg.Org
	c := &Controller{
		cfg:        cfg,
		mod:        mod,
		dcfg:       dcfg,
		mapper:     mapper,
		policy:     policy,
		readQ:      make([]*Request, 0, cfg.ReadQueueCap),
		writeQ:     make([]*Request, 0, cfg.WriteQueueCap),
		free:       make([]*Request, cfg.ReadQueueCap+cfg.WriteQueueCap),
		nextRefAt:  make([]ticks.T, org.Ranks),
		refDebt:    make([]int, org.Ranks),
		refCount:   make([]int64, org.Ranks),
		hitStreak:  make([]int, org.Banks()),
		triedBank:  make([]uint64, org.Banks()),
		writeLines: make(map[uint64]int),
	}
	for r := range c.nextRefAt {
		// Stagger rank refreshes across the tREFI period, as real
		// controllers do, so refresh blackouts do not align.
		c.nextRefAt[r] = dcfg.Timing.TREFI * ticks.T(r+1) / ticks.T(org.Ranks)
	}
	store := make([]Request, len(c.free))
	for i := range c.free {
		c.free[i] = &store[i]
	}
	return c, nil
}

// Stats returns a snapshot of controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// Module exposes the underlying DRAM module (read-only use intended).
func (c *Controller) Module() *dram.Module { return c.mod }

// Mapper exposes the address mapper.
func (c *Controller) Mapper() AddressMapper { return c.mapper }

// Policy exposes the mitigation policy.
func (c *Controller) Policy() mitigation.Policy { return c.policy }

// QueueLen reports current read and write queue occupancy.
func (c *Controller) QueueLen() (reads, writes int) { return len(c.readQ), len(c.writeQ) }

// SetWaker registers fn, invoked when a request is accepted into a
// previously empty controller — the only event that can create work for a
// quiescent controller between its self-computed maintenance deadlines.
// Demand-driven clocks use it to resume a parked controller ticker.
func (c *Controller) SetWaker(fn func(now ticks.T)) { c.waker = fn }

// Enqueue presents a request to the controller, which copies *req into a
// queue entry it owns; req itself is not retained. It reports false when
// the relevant queue is full; the caller must retry later.
func (c *Controller) Enqueue(req *Request, now ticks.T) bool {
	if req.Write {
		if len(c.writeQ) >= c.cfg.WriteQueueCap {
			return false
		}
		c.writeQ = append(c.writeQ, c.store(req, now))
		c.writeLines[req.Line]++
		c.stats.Writes++
		c.wakeIfIdle(now)
		return true
	}
	// Read-after-write forwarding: pending writes hold the freshest data.
	if c.writeLines[req.Line] > 0 {
		c.stats.Reads++
		c.stats.WriteForward++
		if req.Done != nil {
			req.Done.Complete(req.Tag, now+CyclePeriod)
		}
		return true
	}
	if len(c.readQ) >= c.cfg.ReadQueueCap {
		return false
	}
	c.readQ = append(c.readQ, c.store(req, now))
	c.stats.Reads++
	c.wakeIfIdle(now)
	return true
}

// store copies req into a free queue entry. The queue caps bound the
// entries in use, so the free list cannot run dry.
func (c *Controller) store(req *Request, now ticks.T) *Request {
	e := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	// Field by field: a composite literal would build and copy a temporary.
	e.Line, e.Write, e.Done, e.Tag = req.Line, req.Write, req.Done, req.Tag
	e.arrive, e.loc, e.missed = now, c.mapper.Decode(req.Line), false
	return e
}

// wakeIfIdle fires the waker when the request just accepted is the only
// queued work — any other occupancy means the controller is already awake.
func (c *Controller) wakeIfIdle(now ticks.T) {
	if c.waker != nil && len(c.readQ)+len(c.writeQ) == 1 {
		c.waker(now)
	}
}

// Tick advances the controller by one cycle; it issues at most one DRAM
// command. now must advance by CyclePeriod between calls.
func (c *Controller) Tick(now ticks.T) {
	c.mod.Maintain(now)
	c.accrueMaintenance(now)

	if c.serviceMaintenance(now) {
		return
	}
	c.schedule(now)
}

// NextWork reports a conservative earliest time the controller could
// possibly have work, assuming no new requests arrive: now+CyclePeriod
// while any demand or maintenance work is pending (commands may become
// legal any cycle as timing windows expire), otherwise the earliest
// time-driven maintenance deadline — refresh accrual, the policy's next
// scheduled RFM, or the DRAM's next housekeeping action — and ticks.Never
// when none exists. Every controller cycle strictly before the reported
// time is provably a no-op, so a demand-driven clock may skip it; a
// request arriving earlier re-arms the clock through SetWaker.
func (c *Controller) NextWork(now ticks.T) ticks.T {
	if len(c.readQ) > 0 || len(c.writeQ) > 0 ||
		c.rfmPending > 0 || len(c.pbPending) > 0 ||
		c.aboRFMs > 0 || c.aboQueued || c.aboDeadln != 0 ||
		c.mod.AlertAsserted() {
		return now + CyclePeriod
	}
	next := ticks.Never
	if !c.cfg.NoRefresh {
		for r, d := range c.refDebt {
			if d > 0 {
				return now + CyclePeriod
			}
			if at := c.nextRefAt[r]; at < next {
				next = at
			}
		}
	}
	if at := c.policy.NextDue(now); at < next {
		next = at
	}
	if at := c.mod.NextMaintenance(now); at < next {
		next = at
	}
	return next
}

// accrueMaintenance updates refresh debt, proactive-RFM debt and the Alert
// Back-Off state machine.
func (c *Controller) accrueMaintenance(now ticks.T) {
	t := c.dcfg.Timing
	if !c.cfg.NoRefresh {
		for r := range c.nextRefAt {
			for now >= c.nextRefAt[r] {
				c.refDebt[r]++
				c.nextRefAt[r] += t.TREFI
			}
		}
	}

	c.rfmPending += c.policy.Due(now)
	if pb, ok := c.policy.(mitigation.PerBankPolicy); ok {
		c.pbPending = append(c.pbPending, pb.DuePerBank(now)...)
	}

	// Alert Back-Off: when the DRAM asserts Alert, the controller may
	// issue up to ABOActAllowance further ACTs (within tABOACT) before
	// it must issue NMit RFMs.
	if c.mod.AlertAsserted() {
		if !c.aboQueued {
			if c.aboDeadln == 0 {
				c.aboDeadln = now + t.TABOACT
				c.aboBudget = c.dcfg.PRAC.ABOActAllowance
			}
			if c.aboBudget <= 0 || now >= c.aboDeadln {
				c.aboRFMs += c.dcfg.PRAC.NMit
				c.aboQueued = true
			}
		}
	} else if c.aboQueued && c.aboRFMs == 0 {
		c.aboQueued = false
		c.aboDeadln = 0
	} else if !c.aboQueued {
		c.aboDeadln = 0
	}
}

// maintenanceBlocked reports whether bank may not receive new activations
// because maintenance needs its rank (or the whole channel) quiescent.
func (c *Controller) maintenanceBlocked(bank int) bool {
	if c.rfmPending > 0 || c.aboRFMs > 0 {
		return true
	}
	for _, b := range c.pbPending {
		if b == bank {
			return true
		}
	}
	return c.refDebt[c.dcfg.Org.RankOf(bank)] > 0
}

// serviceMaintenance issues PRE/REFab/RFMab commands needed by refresh, RFM
// and Alert servicing. It reports whether it consumed this cycle's command
// slot.
func (c *Controller) serviceMaintenance(now ticks.T) bool {
	org := c.dcfg.Org
	needRFM := c.rfmPending > 0 || c.aboRFMs > 0

	if needRFM {
		if c.mod.CanIssue(dram.Cmd{Kind: dram.CmdRFMab}, now) {
			c.mod.Issue(dram.Cmd{Kind: dram.CmdRFMab}, now)
			if c.aboRFMs > 0 {
				c.aboRFMs--
				c.stats.ABORFMs++
			} else {
				c.rfmPending--
				c.stats.PolicyRFMs++
			}
			return true
		}
		return c.prechargeForDrain(now, -1)
	}

	if len(c.pbPending) > 0 {
		b := c.pbPending[0]
		cmd := dram.Cmd{Kind: dram.CmdRFMpb, Bank: b}
		if c.mod.CanIssue(cmd, now) {
			c.mod.Issue(cmd, now)
			c.pbPending = c.pbPending[1:]
			c.stats.PolicyRFMs++
			return true
		}
		if _, open := c.mod.OpenRow(b); open {
			if c.mod.CanIssue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now) {
				c.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now)
				return true
			}
		}
		// The bank is draining (tRP or rank refresh); fall through so
		// other banks keep being served meanwhile.
	}

	for r := 0; r < org.Ranks; r++ {
		if c.refDebt[r] == 0 {
			continue
		}
		tref := c.cfg.TREFEvery > 0 && (c.refCount[r]+1)%int64(c.cfg.TREFEvery) == 0
		cmd := dram.Cmd{Kind: dram.CmdREFab, Bank: r, TREF: tref}
		if c.mod.CanIssue(cmd, now) {
			c.mod.Issue(cmd, now)
			c.refDebt[r]--
			c.refCount[r]++
			c.stats.Refreshes++
			if tref {
				c.stats.TREFs++
				c.trefSeen++
				if c.trefSeen >= org.Ranks {
					c.trefSeen = 0
					c.policy.OnTREF(now)
				}
			}
			return true
		}
		if c.prechargeForDrain(now, r) {
			return true
		}
	}
	return false
}

// prechargeForDrain closes one open row so pending maintenance can proceed.
// rank < 0 drains the whole channel (for RFMab).
func (c *Controller) prechargeForDrain(now ticks.T, rank int) bool {
	org := c.dcfg.Org
	lo, hi := 0, org.Banks()
	if rank >= 0 {
		lo = rank * org.BanksPerRank()
		hi = lo + org.BanksPerRank()
	}
	for b := lo; b < hi; b++ {
		if _, open := c.mod.OpenRow(b); !open {
			continue
		}
		if c.mod.CanIssue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now) {
			c.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now)
			return true
		}
	}
	return false
}

// schedule issues one demand command following FR-FCFS with a hit cap.
func (c *Controller) schedule(now ticks.T) {
	if c.draining {
		if len(c.writeQ) <= c.cfg.WriteLo {
			c.draining = false
		}
	} else if len(c.writeQ) >= c.cfg.WriteHi {
		c.draining = true
	}

	if c.draining || len(c.readQ) == 0 {
		if c.issueFrom(&c.writeQ, now) {
			return
		}
	}
	if c.issueFrom(&c.readQ, now) {
		return
	}
	if !c.draining && len(c.readQ) == 0 {
		c.issueFrom(&c.writeQ, now)
	}
}

// issueFrom applies FR-FCFS to one queue. It reports whether a command was
// issued.
func (c *Controller) issueFrom(q *[]*Request, now ticks.T) bool {
	queue := *q
	if len(queue) == 0 {
		return false
	}

	// First Ready: oldest request whose row is already open, unless the
	// bank's hit streak exceeded the cap while an older conflicting
	// request waits (cap-4 FR-FCFS, Table 3).
	var hit *Request
	hitIdx := -1
	for i, r := range queue {
		row, open := c.mod.OpenRow(r.loc.Bank)
		if open && row == r.loc.Row {
			capped := c.hitStreak[r.loc.Bank] >= c.cfg.FRFCFSCap && c.olderConflict(queue, i)
			if !capped {
				hit, hitIdx = r, i
				break
			}
		}
	}
	if hit != nil && c.tryColumn(hit, now) {
		if c.olderConflict(queue, hitIdx) {
			c.hitStreak[hit.loc.Bank]++
		}
		if hit.Write {
			c.untrackWrite(hit.Line)
		}
		c.remove(q, hitIdx)
		return true
	}

	// First Come First Served: walk the queue in age order and serve the
	// first request that can make progress, considering each bank once.
	// Requests whose bank is held for pending maintenance or still inside
	// a timing window must not head-of-line-block younger requests to
	// other banks (bank-level parallelism). The scratch set is reset by
	// bumping the generation stamp, not by clearing the slice.
	c.triedGen++
	for _, r := range queue {
		b := r.loc.Bank
		if c.triedBank[b] == c.triedGen {
			continue
		}
		c.triedBank[b] = c.triedGen
		if c.maintenanceBlocked(b) {
			continue
		}
		if row, open := c.mod.OpenRow(b); open {
			if row == r.loc.Row {
				continue // column timing not ready; the hit scan serves it
			}
			if c.mod.CanIssue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now) {
				c.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now)
				return true
			}
			continue
		}
		if c.mod.CanIssue(dram.Cmd{Kind: dram.CmdACT, Bank: b, Row: r.loc.Row}, now) {
			c.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: b, Row: r.loc.Row}, now)
			c.hitStreak[b] = 0
			c.policy.OnActivate(b, now)
			if c.mod.AlertAsserted() && !c.aboQueued && c.aboBudget > 0 {
				c.aboBudget--
			}
			if !r.missed {
				r.missed = true
				c.stats.RowMisses++
			}
			return true
		}
	}
	return false
}

// olderConflict reports whether any request older than index i targets the
// same bank with a different row.
func (c *Controller) olderConflict(queue []*Request, i int) bool {
	r := queue[i]
	for _, o := range queue[:i] {
		if o.loc.Bank == r.loc.Bank && o.loc.Row != r.loc.Row {
			return true
		}
	}
	return false
}

// tryColumn issues the RD/WR for a request whose row is open.
func (c *Controller) tryColumn(r *Request, now ticks.T) bool {
	kind := dram.CmdRD
	if r.Write {
		kind = dram.CmdWR
	}
	cmd := dram.Cmd{Kind: kind, Bank: r.loc.Bank}
	if !c.mod.CanIssue(cmd, now) {
		return false
	}
	res := c.mod.Issue(cmd, now)
	if !r.missed {
		c.stats.RowHits++
	}
	if !r.Write && r.Done != nil {
		c.stats.ReadLatency += res.DataAt - r.arrive
		r.Done.Complete(r.Tag, res.DataAt)
	}
	return true
}

// untrackWrite drops one in-flight write to line from the forwarding
// index, deleting the key at zero so the map stays bounded by write-queue
// occupancy.
func (c *Controller) untrackWrite(line uint64) {
	if n := c.writeLines[line]; n > 1 {
		c.writeLines[line] = n - 1
	} else {
		delete(c.writeLines, line)
	}
}

// remove drops queue entry i and returns its storage to the free list.
func (c *Controller) remove(q *[]*Request, i int) {
	queue := *q
	c.free = append(c.free, queue[i])
	copy(queue[i:], queue[i+1:])
	queue[len(queue)-1] = nil
	*q = queue[:len(queue)-1]
}
