package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pracsim/internal/analysis"
	"pracsim/internal/attack"
	"pracsim/internal/exp"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/service"
	"pracsim/internal/exp/shard"
	"pracsim/internal/exp/store"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// configure mirrors exp's per-variant configuration (unexported there)
// so the traced pass can time the TB-Window solve on its own. A drift
// from exp shows up as a DiffResults mismatch against the session.
func configure(rs runSpec, rec *recorder, parent int) (sim.SystemConfig, error) {
	cfg := sim.DefaultSystemConfig(rs.nrh)
	cfg.Workload = rs.workload
	cfg.Policy = rs.policy
	cfg.DRAM.PRAC.NMit = rs.prac
	cfg.DRAM.PRAC.ResetOnREFW = !rs.noReset
	cfg.Ctrl.TREFEvery = rs.trefEvery
	cfg.SkipOnTREF = rs.skipOnTREF
	if !solves(rs.policy) {
		return cfg, nil
	}
	p := analysis.ParamsFromDRAM(cfg.DRAM)
	s := rec.begin("analysis.SolveWindow", parent)
	w, err := p.SolveWindow(rs.nrh, !rs.noReset, 0)
	kind := "reset"
	if rs.noReset {
		kind = "noreset"
	}
	rec.add("analysis.solve_"+kind+"_ms", ms(rec.end(s)))
	rec.add("analysis.solve_"+kind+"_calls", 1)
	if err != nil {
		return cfg, err
	}
	if rs.policy == sim.PolicyACB {
		cfg.BAT = max(p.ActsPerWindow(w), 2)
		return cfg, nil
	}
	cfg.TBWindow = max(w, cfg.DRAM.Timing.TRFMab+ticks.FromNS(250))
	return cfg, nil
}

// solves reports whether a policy's configuration solves a TB-Window.
func solves(p sim.PolicyKind) bool {
	return p == sim.PolicyTPRAC || p == sim.PolicyTPRACpb || p == sim.PolicyACB
}

// traceGrid re-drives every simulation of the untraced session
// serially: solve, build and run are timed apart, the layers' counters
// are read off the System, and each result must equal the session's.
func traceGrid(_ Inputs, rd round, _ string, rec *recorder) error {
	g := rd.(*gridRound)
	root := rec.begin("grid", -1)
	for i, rep := range g.reports {
		s := rec.begin("exp.Report.CSV "+g.exps[i], root)
		_ = rep.CSV()
		rec.add("exp.csv_ms", ms(rec.end(s))/float64(len(g.reports)))
	}
	rec.set("exp.executed", float64(g.sess.Executed()))

	var runs, setupAllocs, runAllocs, insts float64
	var setupDur, runDur, drawDur time.Duration
	var draws int64
	classNS := map[trace.Class]float64{}
	classInst := map[trace.Class]float64{}
	var latency ticks.T
	for _, key := range sortedKeys(g.runs) {
		rs, err := parseKey(key)
		if err != nil {
			return err
		}
		w, err := trace.Lookup(rs.workload)
		if err != nil {
			return err
		}
		cell := rec.begin("cell "+shortKey(key), root)
		cfg, err := configure(rs, rec, cell)
		if err != nil {
			return err
		}
		m0 := mallocs()
		s := rec.begin("sim.NewSystem", cell)
		sys, err := sim.NewSystem(cfg)
		setupDur += rec.end(s)
		m1 := mallocs()
		if err != nil {
			return err
		}
		s = rec.begin("sim.System.Run", cell)
		res, err := sys.Run(rs.warmup, rs.measured)
		d := rec.end(s)
		m2 := mallocs()
		if err != nil {
			return err
		}
		rec.verify("run "+shortKey(key), sim.DiffResults(res, g.runs[key]))
		n := float64(int64(len(sys.Cores)) * (rs.warmup + rs.measured))
		runs++
		runDur += d
		setupAllocs += float64(m1 - m0)
		runAllocs += float64(m2 - m1)
		insts += n
		classNS[w.Class] += float64(d.Nanoseconds())
		classInst[w.Class] += n

		rec.add("sim.engine_steps", float64(res.Telemetry.EngineSteps))
		rec.add("sim.elided_cycles", float64(res.Telemetry.ElidedCycles()))
		for _, c := range sys.Cores {
			st := c.Stats()
			rec.add("cpu.instructions", float64(st.Instructions))
			rec.add("cpu.stall_cycles", float64(st.StallCycles))
		}
		for i := range sys.L1s {
			l1, l2 := sys.L1s[i].Stats(), sys.L2s[i].Stats()
			rec.add("cache.l1_misses", float64(l1.Misses))
			rec.add("cache.l2_misses", float64(l2.Misses))
			rec.add("cache.mshr_merges", float64(l1.MSHRMerges+l2.MSHRMerges))
			rec.add("cache.stalls", float64(l1.Stalls+l2.Stalls))
		}
		llc := sys.LLC.Stats()
		rec.add("cache.llc_misses", float64(llc.Misses))
		rec.add("cache.mshr_merges", float64(llc.MSHRMerges))
		rec.add("cache.stalls", float64(llc.Stalls))
		rec.add("memctrl.reads", float64(res.Ctrl.Reads))
		rec.add("memctrl.writes", float64(res.Ctrl.Writes))
		rec.add("memctrl.row_misses", float64(res.Ctrl.RowMisses))
		rec.add("memctrl.abo_rfms", float64(res.Ctrl.ABORFMs))
		rec.add("mitigation.policy_rfms", float64(res.Ctrl.PolicyRFMs))
		rec.add("dram.acts", float64(res.DRAM.ACTs))
		rec.add("dram.rfms", float64(res.DRAM.RFMs))
		rec.add("dram.alerts", float64(res.DRAM.AlertsAsserted))
		latency += res.Ctrl.ReadLatency

		// The trace layer alone: draw as many records as the cores
		// retired (one record per instruction).
		s = rec.begin("trace.Synth.Next", cell)
		for range sys.Cores {
			st, err := trace.NewWorkloadStream(rs.workload)
			if err != nil {
				return err
			}
			for i := int64(0); i < rs.warmup+rs.measured; i++ {
				st.Next()
			}
			draws += rs.warmup + rs.measured
		}
		drawDur += rec.end(s)
		rec.end(cell)
	}
	total := rec.end(root)

	solveMS := rec.vals["analysis.solve_reset_ms"] + rec.vals["analysis.solve_noreset_ms"]
	calls := rec.vals["analysis.solve_reset_calls"] + rec.vals["analysis.solve_noreset_calls"]
	rec.set("analysis.solve_reset_ms", mean(rec.vals["analysis.solve_reset_ms"], int(rec.vals["analysis.solve_reset_calls"])))
	rec.set("analysis.solve_noreset_ms", mean(rec.vals["analysis.solve_noreset_ms"], int(rec.vals["analysis.solve_noreset_calls"])))
	rec.set("analysis.solve_calls", calls)
	rec.set("analysis.share", solveMS/ms(total))
	rec.set("sim.setup_ms", mean(ms(setupDur), int(runs)))
	rec.set("sim.setup_allocs", mean(setupAllocs, int(runs)))
	rec.set("sim.run_s", mean(runDur.Seconds(), int(runs)))
	rec.set("sim.allocs_per_kinst", runAllocs/(insts/1000))
	rec.set("sim.ns_per_inst.high", mean(classNS[trace.ClassHigh], int(classInst[trace.ClassHigh])))
	rec.set("sim.ns_per_inst.low", mean(classNS[trace.ClassLow], int(classInst[trace.ClassLow])))
	rec.set("trace.next_ns", mean(float64(drawDur.Nanoseconds()), int(draws)))
	rec.set("memctrl.read_latency_ns", mean(latency.NS(), int(rec.vals["memctrl.reads"])))
	if classInst[trace.ClassHigh] == 0 {
		rec.note("sim.ns_per_inst.high reads 0: no High-RBMPKI workload on this grid")
	}
	if rec.vals["analysis.solve_noreset_calls"] == 0 {
		rec.note("analysis.solve_noreset_ms reads 0: no counter-reset-off variant on this grid")
	}
	rec.note("attack.*, service.*, store.*, journal.* and shard.* read 0: this workload does not run those layers")
	return nil
}

// traceAttacks re-runs every attack case serially and times it; each
// result must encode exactly like the untraced round's.
func traceAttacks(_ Inputs, rd round, _ string, rec *recorder) error {
	a := rd.(*attackRound)
	root := rec.begin("attack-suite", -1)
	var covertMS, aesMS, allocs float64
	var covertN, aesN int
	for i, c := range a.cases {
		m0 := mallocs()
		s := rec.begin("attack "+c.name, root)
		res, err := c.run()
		d := rec.end(s)
		allocs += float64(mallocs() - m0)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		rec.verify(c.name, sameJSON(res, a.results[i]))
		switch r := res.(type) {
		case attack.ChannelResult:
			covertMS += ms(d)
			covertN++
			rec.add("memctrl.abo_rfms", float64(r.ABORFMs))
			rec.add("dram.alerts", float64(r.AlertsRaised))
		case attack.AESResult:
			aesMS += ms(d)
			aesN++
			rec.add("memctrl.abo_rfms", float64(r.ABORFMs))
			rec.add("dram.rfms", float64(r.TotalRFMs))
		}
	}
	rec.end(root)
	rec.set("attack.covert_ms", mean(covertMS, covertN))
	rec.set("attack.aes_ms", mean(aesMS, aesN))
	rec.set("attack.allocs_per_call", mean(allocs, len(a.cases)))
	rec.note("memctrl.abo_rfms, dram.alerts and dram.rfms are summed from the attack results; the attack API exposes no other layer counters, and no solver, core, cache, trace, exp or service runs here, so every other layer metric reads 0")
	return nil
}

// tracedJobs is how many cold+warm job pairs the traced service pass
// runs, each on a fresh daemon.
const tracedJobs = 3

// serviceTimes accumulates the traced service pass's samples.
type serviceTimes struct {
	cold, warm, waits        []float64
	leaseMS, ackMS, exportMS float64
	leases, acks             int
}

// traceService drives the daemon with one serial traced worker loop
// built from the public client calls, then times a store read of every
// job key and the queue journal's recovery.
func traceService(in Inputs, rd round, dir string, rec *recorder) error {
	want := rd.(*serviceRound).csvs[0]
	root := rec.begin("service-jobs", -1)
	var t serviceTimes
	var getMS, recoverMS float64
	var gets int
	for j := 0; j < tracedJobs; j++ {
		jdir := filepath.Join(dir, fmt.Sprint(j))
		if err := tracedJob(in, jdir, want, rec, root, &t); err != nil {
			return err
		}
		st, err := store.Open(filepath.Join(jdir, "store"))
		if err != nil {
			return err
		}
		keys, err := exp.GridKeys([]string{jobExp}, jobScales(in)[jobScale])
		if err != nil {
			return err
		}
		for _, k := range keys {
			s := rec.begin("store.Get", root)
			_, ok := st.Get(k)
			getMS += ms(rec.end(s))
			gets++
			if !ok {
				rec.verify("store.Get", "job key missing from the daemon's store: "+k)
			}
		}
		s := rec.begin("journal.Open", root)
		jl, recov, err := journal.Open(filepath.Join(jdir, "queue.journal"), journal.Options{
			Schema:      sim.SchemaVersion,
			Fingerprint: journal.Fingerprint("pracsimd/queue/1"), // the daemon's queue journal role
		})
		recoverMS += ms(rec.end(s))
		if err != nil {
			return err
		}
		if err := jl.Close(); err != nil {
			return err
		}
		if recov.Records < 2 {
			rec.verify("journal recovery", fmt.Sprintf("replayed %d records; the fingerprint no longer matches the daemon's", recov.Records))
		}
	}
	rec.end(root)
	rec.set("service.cold_job_s", median(t.cold))
	rec.set("service.warm_job_s", median(t.warm))
	rec.set("service.queue_wait_ms", median(t.waits))
	rec.set("service.lease_ms", mean(t.leaseMS, t.leases))
	rec.set("service.ack_ms", mean(t.ackMS, t.acks))
	rec.set("shard.export_ms", mean(t.exportMS, t.acks))
	rec.set("store.get_ms", mean(getMS, gets))
	rec.set("journal.recover_ms", mean(recoverMS, tracedJobs))
	rec.note("analysis.solve_calls counts the TPRAC and ACB cells the traced worker executed; the solve, sim.*, cpu.*, cache.*, memctrl.* and dram.* times and counters are measured on grid-mixed and sweep-noreset")
	return nil
}

// tracedJob runs one cold job through a serial traced worker loop and a
// warm resubmit on a fresh daemon, and closes the daemon.
func tracedJob(in Inputs, dir string, want []byte, rec *recorder, root int, t *serviceTimes) (err error) {
	d, err := openDaemon(in, dir, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := d.close(); err == nil {
			err = cerr
		}
	}()
	ctx := context.Background()
	c := service.NewClient(d.url, tenantCold)
	job := rec.begin("job cold", root)
	t0 := time.Now()
	st, err := c.Submit(ctx, service.GridSpec{Exps: []string{jobExp}, Scale: jobScale, Shards: jobShards})
	if err != nil {
		return err
	}
	for first := true; ; first = false {
		s := rec.begin("service.Client.Lease", job)
		g, err := c.Lease(ctx, "traced")
		t.leaseMS += ms(rec.end(s))
		t.leases++
		if err != nil {
			return err
		}
		if g == nil {
			break
		}
		if first {
			t.waits = append(t.waits, ms(time.Since(t0)))
		}
		sp, err := shard.Parse(g.Item)
		if err != nil {
			return err
		}
		sess := exp.NewRunnerWith(exp.Scale{Warmup: g.Warmup, Measured: g.Measured, Workloads: g.Workloads, Workers: 1},
			exp.SessionOptions{Shard: sp})
		s = rec.begin("exp.Runner.Run", job)
		for _, name := range g.Exps {
			if _, err := sess.Run(name); err != nil {
				return err
			}
		}
		rec.end(s)
		path := filepath.Join(dir, strings.ReplaceAll(g.Item, "/", "of")+".runs")
		s = rec.begin("exp.Runner.ExportShard", job)
		_, err = sess.ExportShard(path)
		t.exportMS += ms(rec.end(s))
		if err != nil {
			return err
		}
		// The worker's session solved one TB-Window per executed TPRAC
		// or ACB cell.
		entries, err := shard.ReadFile(path, sim.SchemaVersion)
		if err != nil {
			return err
		}
		for _, e := range entries {
			rs, err := parseKey(e.Key)
			if err != nil {
				return err
			}
			if solves(rs.policy) {
				rec.add("analysis.solve_calls", 1)
			}
		}
		s = rec.begin("service.Client.Ack", job)
		err = c.Ack(ctx, g.ID, path, sess.Executed())
		t.ackMS += ms(rec.end(s))
		t.acks++
		if err != nil {
			return err
		}
	}
	if st, err = c.Wait(ctx, st.ID, poll.Base); err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	csv, err := c.Result(ctx, st.ID, jobExp+".csv")
	rec.end(job)
	t.cold = append(t.cold, time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	rec.verify("traced cold job CSV", diffBytes(csv, want))

	job = rec.begin("job warm", root)
	t1 := time.Now()
	_, csv, err = d.job(ctx, tenantWarm)
	rec.end(job)
	t.warm = append(t.warm, time.Since(t1).Seconds())
	if err != nil {
		return err
	}
	rec.verify("traced warm job CSV", diffBytes(csv, want))
	expiries, err := scrape(d.url, "pracsimd_lease_expiries_total")
	rec.add("service.lease_expiries", expiries)
	return err
}

// scrape reads one counter from the daemon's /metrics.
func scrape(url, name string) (float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}
