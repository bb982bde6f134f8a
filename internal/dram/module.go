package dram

import (
	"fmt"

	"pracsim/internal/ticks"
)

// CmdKind identifies a DRAM command.
type CmdKind int

const (
	CmdACT   CmdKind = iota // activate a row in a bank
	CmdPRE                  // precharge a bank (PRAC counter update happens here)
	CmdRD                   // read one cache line from the open row
	CmdWR                   // write one cache line to the open row
	CmdREFab                // all-bank refresh for one rank
	CmdRFMab                // Refresh Management, all banks, whole channel
	CmdRFMpb                // Per-bank Refresh Management (the paper's Section 7.2 extension)
)

// String returns the JEDEC-style command mnemonic.
func (k CmdKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREFab:
		return "REFab"
	case CmdRFMab:
		return "RFMab"
	case CmdRFMpb:
		return "RFMpb"
	default:
		return fmt.Sprintf("CmdKind(%d)", int(k))
	}
}

// Cmd is one command as issued by the memory controller.
type Cmd struct {
	Kind CmdKind
	Bank int  // flat bank index for ACT/PRE/RD/WR; rank index for REFab
	Row  int  // row for ACT
	TREF bool // for REFab: this refresh also performs a targeted mitigation
}

// Result reports the timing consequences of an issued command.
type Result struct {
	// DataAt is when read data is fully transferred (CmdRD only).
	DataAt ticks.T
	// MitigatedRows lists rows mitigated by this command (RFMab / TREF).
	MitigatedRows int
}

// Stats counts device activity. All fields are cumulative.
type Stats struct {
	ACTs            int64
	PREs            int64
	RDs             int64
	WRs             int64
	REFs            int64
	RFMs            int64
	RFMpbs          int64
	TREFMitigations int64
	MitigatedRows   int64
	AlertsAsserted  int64
	CounterResets   int64 // refresh-window-wide counter wipes
}

type bankState int

const (
	bankIdle bankState = iota
	bankActive
)

// bank holds one bank's timing state machine, PRAC counters and queue.
type bank struct {
	state   bankState
	openRow int

	actReadyAt   ticks.T // earliest next ACT (tRP after PRE, tRC after ACT)
	rwReadyAt    ticks.T // earliest RD/WR after ACT (tRCD)
	preReadyAt   ticks.T // earliest PRE (tRAS / tRTP / tWR)
	lastACTAt    ticks.T
	blockedUntil ticks.T // per-bank RFMpb in flight

	counters map[int]uint32
	queue    MitigationQueue
}

// Module is one DRAM channel.
type Module struct {
	cfg   Config
	banks []bank

	rankBlockedUntil    []ticks.T // REFab in flight
	channelBlockedUntil ticks.T   // RFMab in flight
	busFreeAt           ticks.T   // shared data bus

	// Alert Back-Off state.
	alertAsserted  bool
	alertArmed     bool
	rfmsSinceAlert int
	actsSinceRFM   int

	nextCounterReset ticks.T

	stats Stats
}

// New builds a module from a validated configuration.
func New(cfg Config) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Module{
		cfg:              cfg,
		banks:            make([]bank, cfg.Org.Banks()),
		rankBlockedUntil: make([]ticks.T, cfg.Org.Ranks),
		alertArmed:       true,
		nextCounterReset: cfg.Timing.TREFW,
	}
	for i := range m.banks {
		b := &m.banks[i]
		b.counters = make(map[int]uint32)
		b.queue = newQueue(cfg, b.counters)
	}
	return m, nil
}

// MustNew is New but panics on configuration errors; intended for tests and
// experiment setup where the configuration is a literal.
func MustNew(cfg Config) *Module {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// Stats returns a snapshot of the activity counters.
func (m *Module) Stats() Stats { return m.stats }

// AlertAsserted reports whether the DRAM is currently asserting the Alert
// signal, requesting mitigation time from the memory controller.
func (m *Module) AlertAsserted() bool { return m.alertAsserted }

// OpenRow reports the row open in a bank, if any.
func (m *Module) OpenRow(bankIdx int) (row int, open bool) {
	b := &m.banks[bankIdx]
	return b.openRow, b.state == bankActive
}

// RowCounter reports the PRAC activation counter of a row.
func (m *Module) RowCounter(bankIdx, row int) uint32 {
	return m.banks[bankIdx].counters[row]
}

// ChannelBlockedUntil reports when the channel-wide RFM block ends.
func (m *Module) ChannelBlockedUntil() ticks.T { return m.channelBlockedUntil }

// Maintain performs time-driven housekeeping: the per-tREFW activation
// counter reset (when configured). The controller calls it once per
// controller cycle.
func (m *Module) Maintain(now ticks.T) {
	if !m.cfg.PRAC.Enabled || !m.cfg.PRAC.ResetOnREFW {
		return
	}
	for now >= m.nextCounterReset {
		for i := range m.banks {
			b := &m.banks[i]
			clear(b.counters)
			b.queue.Clear()
		}
		m.stats.CounterResets++
		m.nextCounterReset += m.cfg.Timing.TREFW
	}
}

// NextMaintenance reports the next time Maintain will act — the upcoming
// per-tREFW counter reset — or ticks.Never when no time-driven
// housekeeping is configured. Demand-driven controller clocks fold this
// into their wake deadline so a skipped idle window never slides a
// counter reset to a later cycle than per-cycle polling would have.
func (m *Module) NextMaintenance(ticks.T) ticks.T {
	if !m.cfg.PRAC.Enabled || !m.cfg.PRAC.ResetOnREFW {
		return ticks.Never
	}
	return m.nextCounterReset
}

// CanIssue reports whether cmd is legal at time now under all timing
// constraints and blocking conditions.
func (m *Module) CanIssue(cmd Cmd, now ticks.T) bool {
	if now < m.channelBlockedUntil {
		return false
	}
	switch cmd.Kind {
	case CmdACT:
		b := &m.banks[cmd.Bank]
		return b.state == bankIdle &&
			now >= b.actReadyAt &&
			now >= b.blockedUntil &&
			now >= m.rankBlockedUntil[m.cfg.Org.RankOf(cmd.Bank)]
	case CmdPRE:
		b := &m.banks[cmd.Bank]
		return b.state == bankActive && now >= b.preReadyAt
	case CmdRD, CmdWR:
		// The shared data bus is modeled as a serialized resource in
		// Issue: a burst that would collide queues behind the previous
		// one instead of blocking the command, so only bank state and
		// tRCD gate legality here.
		b := &m.banks[cmd.Bank]
		if b.state != bankActive || now < b.rwReadyAt || now < b.blockedUntil {
			return false
		}
		return now >= m.rankBlockedUntil[m.cfg.Org.RankOf(cmd.Bank)]
	case CmdREFab:
		rank := cmd.Bank
		if now < m.rankBlockedUntil[rank] {
			return false
		}
		lo := rank * m.cfg.Org.BanksPerRank()
		for i := lo; i < lo+m.cfg.Org.BanksPerRank(); i++ {
			if m.banks[i].state != bankIdle || now < m.banks[i].actReadyAt {
				return false
			}
		}
		return true
	case CmdRFMab:
		for i := range m.banks {
			if m.banks[i].state != bankIdle {
				return false
			}
		}
		for r := range m.rankBlockedUntil {
			if now < m.rankBlockedUntil[r] {
				return false
			}
		}
		return true
	case CmdRFMpb:
		b := &m.banks[cmd.Bank]
		return b.state == bankIdle &&
			now >= b.blockedUntil &&
			now >= m.rankBlockedUntil[m.cfg.Org.RankOf(cmd.Bank)]
	default:
		return false
	}
}

// Issue commits a command at time now. The command must be legal; Issue
// panics otherwise, because an illegal command indicates a controller bug
// that must not be silently absorbed into results.
func (m *Module) Issue(cmd Cmd, now ticks.T) Result {
	if !m.CanIssue(cmd, now) {
		panic(fmt.Sprintf("dram: illegal %v to bank %d at %v", cmd.Kind, cmd.Bank, now))
	}
	t := &m.cfg.Timing
	var res Result
	switch cmd.Kind {
	case CmdACT:
		b := &m.banks[cmd.Bank]
		b.state = bankActive
		b.openRow = cmd.Row
		b.lastACTAt = now
		b.actReadyAt = now + t.TRC
		b.rwReadyAt = now + t.TRCD
		b.preReadyAt = now + t.TRAS
		m.stats.ACTs++
		m.noteActivation()
	case CmdPRE:
		b := &m.banks[cmd.Bank]
		b.state = bankIdle
		b.actReadyAt = ticks.Max(b.actReadyAt, now+t.TRP)
		m.stats.PREs++
		m.countActivation(cmd.Bank, b.openRow)
	case CmdRD:
		b := &m.banks[cmd.Bank]
		start := ticks.Max(now+t.TCL, m.busFreeAt)
		m.busFreeAt = start + t.TBURST
		res.DataAt = start + t.TBURST
		b.preReadyAt = ticks.Max(b.preReadyAt, now+t.TRTP)
		m.stats.RDs++
	case CmdWR:
		b := &m.banks[cmd.Bank]
		start := ticks.Max(now+t.TCWL, m.busFreeAt)
		m.busFreeAt = start + t.TBURST
		b.preReadyAt = ticks.Max(b.preReadyAt, start+t.TBURST+t.TWR)
		m.stats.WRs++
	case CmdREFab:
		rank := cmd.Bank
		m.rankBlockedUntil[rank] = now + t.TRFC
		m.stats.REFs++
		if cmd.TREF {
			res.MitigatedRows = m.mitigateRank(rank)
			m.stats.TREFMitigations++
		}
	case CmdRFMab:
		m.channelBlockedUntil = now + t.TRFMab
		m.stats.RFMs++
		for rank := 0; rank < m.cfg.Org.Ranks; rank++ {
			res.MitigatedRows += m.mitigateRank(rank)
		}
		if m.alertAsserted {
			m.rfmsSinceAlert++
			if m.rfmsSinceAlert >= m.cfg.PRAC.NMit {
				// Alert serviced: deassert and arm ABODelay — the
				// Alert may only reassert after NMit activations.
				m.alertAsserted = false
				m.alertArmed = false
				m.actsSinceRFM = 0
				m.rfmsSinceAlert = 0
			}
		}
	case CmdRFMpb:
		b := &m.banks[cmd.Bank]
		b.blockedUntil = now + t.TRFMpb
		m.stats.RFMpbs++
		if row, ok := b.queue.PopVictim(); ok {
			delete(b.counters, row)
			m.stats.MitigatedRows++
			res.MitigatedRows = 1
		}
	}
	return res
}

// countActivation applies the PRAC read-modify-write that happens while a
// row is being closed: the counter increments and the mitigation queue
// observes the new value. Crossing NBO asserts the Alert.
func (m *Module) countActivation(bankIdx, row int) {
	if !m.cfg.PRAC.Enabled {
		return
	}
	b := &m.banks[bankIdx]
	b.counters[row]++
	c := b.counters[row]
	b.queue.Observe(row, c)
	if int(c) >= m.cfg.PRAC.NBO && m.alertArmed && !m.alertAsserted {
		m.alertAsserted = true
		m.stats.AlertsAsserted++
	}
}

// noteActivation advances the ABODelay arming counter.
func (m *Module) noteActivation() {
	if m.alertArmed {
		return
	}
	m.actsSinceRFM++
	if m.actsSinceRFM >= m.cfg.PRAC.NMit {
		m.alertArmed = true
	}
}

// mitigateRank services the mitigation queue of every bank in a rank:
// the chosen victim row's neighbors are refreshed and its counter resets.
// It returns the number of rows mitigated.
func (m *Module) mitigateRank(rank int) int {
	lo := rank * m.cfg.Org.BanksPerRank()
	n := 0
	for i := lo; i < lo+m.cfg.Org.BanksPerRank(); i++ {
		b := &m.banks[i]
		row, ok := b.queue.PopVictim()
		if !ok {
			continue
		}
		delete(b.counters, row)
		m.stats.MitigatedRows++
		n++
	}
	return n
}
