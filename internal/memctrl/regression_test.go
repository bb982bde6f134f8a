package memctrl

import (
	"testing"

	"pracsim/internal/dram"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
)

// Regression: a refresh draining one rank must not head-of-line-block
// requests to other ranks. The original scheduler considered only the
// oldest queued request in the FCFS path; a request stuck behind its rank's
// refresh then stalled the whole channel for tRFC, which made per-rank
// refresh indistinguishable from channel-wide RFM blocking and broke the
// attacks' coincidence detector.
func TestNoCrossRankHeadOfLineBlocking(t *testing.T) {
	dcfg := dram.DefaultConfig(1 << 20)
	dcfg.Org.Rows = 1024
	rig := newRig(t, dcfg, DefaultConfig(), mitigation.NewABOOnly())

	banksPerRank := dcfg.Org.BanksPerRank()
	var maxLatRank0 ticks.T
	row := 0
	outstanding := 0

	// Keep one rank-1 request parked in the queue at all times (its rank
	// periodically refreshes), while measuring rank-0 miss latencies.
	var parkRank1 func()
	parkRank1 = func() {
		rig.ctrl.Enqueue(&Request{
			Line: rig.lineFor(banksPerRank, row%512, 0),
			Done: ticks.CompleteFunc(func(at ticks.T) {
				parkRank1()
			}),
		}, rig.now)
	}
	parkRank1()

	var probeRank0 func()
	probeRank0 = func() {
		row++
		arrive := rig.now
		outstanding++
		rig.ctrl.Enqueue(&Request{
			Line: rig.lineFor(0, row%512, 0),
			Done: ticks.CompleteFunc(func(at ticks.T) {
				outstanding--
				if lat := at - arrive; lat > maxLatRank0 {
					// Exclude samples overlapping rank 0's own refresh
					// window: those are legitimately slow.
					phase := arrive % dcfg.Timing.TREFI
					rank0Phase := dcfg.Timing.TREFI / ticks.T(dcfg.Org.Ranks)
					d := phase - rank0Phase
					if d < 0 {
						d = -d
					}
					if d > ticks.FromNS(700) {
						maxLatRank0 = lat
					}
				}
			}),
		}, rig.now)
	}
	for rig.now < ticks.FromUS(40) {
		if outstanding == 0 {
			probeRank0()
		}
		rig.ctrl.Tick(rig.now)
		rig.now += CyclePeriod
	}
	// A rank-0 miss is about 75ns; rank-1's refresh must not inflate it
	// toward tRFC (410ns).
	if maxLatRank0 > ticks.FromNS(300) {
		t.Fatalf("rank-0 probe latency reached %v outside its own refresh window; cross-rank head-of-line blocking is back", maxLatRank0)
	}
}
