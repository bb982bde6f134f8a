package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pracsim/internal/exp"
	"pracsim/internal/exp/shard"
	"pracsim/internal/sim"
	"pracsim/internal/trace"
)

// gridRound is one cold experiment session: no store, no journal. The
// session runs as shard 0 of 1, which owns every key and so keeps each
// executed RunResult for the gate without changing what it simulates.
type gridRound struct {
	exps    []string
	dir     string
	sess    *exp.Runner
	reports []exp.Report
	runs    map[string]sim.RunResult
}

func gridSetup(exps []string, warmup, measured int64, pick func(Inputs) []string) func(Inputs, string) (round, error) {
	return func(in Inputs, dir string) (round, error) {
		scale := exp.Scale{Warmup: warmup, Measured: measured, Workloads: pick(in), Workers: benchWorkers}
		return &gridRound{
			exps: exps,
			dir:  dir,
			sess: exp.NewRunnerWith(scale, exp.SessionOptions{Shard: shard.Spec{Index: 0, Count: 1}}),
		}, nil
	}
}

func (g *gridRound) run() error {
	for _, name := range g.exps {
		rep, err := g.sess.Run(name)
		if err != nil {
			return err
		}
		g.reports = append(g.reports, rep)
	}
	return nil
}

// outputs returns every CSV and every executed RunResult (Telemetry
// excluded, since it holds host timings).
func (g *gridRound) outputs() ([]output, error) {
	var outs []output
	for i, rep := range g.reports {
		outs = append(outs, output{g.exps[i] + ".csv", []byte(rep.CSV())})
	}
	path := filepath.Join(g.dir, "session.runs")
	if _, err := g.sess.ExportShard(path); err != nil {
		return nil, err
	}
	entries, err := shard.ReadFile(path, sim.SchemaVersion)
	if err != nil {
		return nil, err
	}
	g.runs = make(map[string]sim.RunResult, len(entries))
	for _, e := range entries {
		res, err := sim.DecodeResult(e.Payload)
		if err != nil {
			return nil, err
		}
		g.runs[e.Key] = res
		res.Telemetry = sim.Telemetry{}
		data, err := sim.EncodeResult(res)
		if err != nil {
			return nil, err
		}
		outs = append(outs, output{"run/" + shortKey(e.Key), data})
	}
	return outs, nil
}

// modelLines reports simulated (not host) results of the grid.
func (g *gridRound) modelLines() []string {
	var lines []string
	for _, rep := range g.reports {
		f, ok := rep.(exp.Fig10Result)
		if !ok {
			continue
		}
		for j, name := range f.Variants {
			if name == "TPRAC" {
				lines = append(lines, fmt.Sprintf(
					"model: simulated TPRAC slowdown at NRH 1024 = %.2f%% (geomean over %d drawn workloads: %s)",
					100*(1-f.GeomeanAll[j]), len(f.Workloads), strings.Join(f.Workloads, ",")))
			}
		}
		lines = append(lines, fmt.Sprintf("model: unvalidated: the repository holds no reference results yet (ROADMAP item 5(a)), so no error figure is given;"+
			" the paper's 3.4%% is a geomean over 50 workloads, which a %d-workload sample does not reproduce", len(f.Workloads)))
	}
	return lines
}

func (g *gridRound) problems() []string { return nil }

func (g *gridRound) close() error { return nil }

// shortKey drops the store key's fixed schema/budget prefix.
func shortKey(key string) string {
	if i := strings.Index(key, "/policy="); i >= 0 {
		return key[i+1:]
	}
	return key
}

// runSpec is one simulation read back from its store key.
type runSpec struct {
	warmup, measured int64
	policy           sim.PolicyKind
	nrh, prac        int
	trefEvery        int
	skipOnTREF       bool
	noReset          bool
	workload         string
}

// parseKey inverts exp's store-key format
// (".../warmup=W/measured=M/policy=P/nrh=N/prac=L/trefevery=T/skipontref=B/noreset=B/workload=NAME").
func parseKey(key string) (runSpec, error) {
	fields := map[string]string{}
	for _, part := range strings.Split(key, "/") {
		if k, v, ok := strings.Cut(part, "="); ok {
			fields[k] = v
		}
	}
	var rs runSpec
	var errs []error
	num := func(name string) int64 {
		n, err := strconv.ParseInt(fields[name], 10, 64)
		errs = append(errs, err)
		return n
	}
	flag := func(name string) bool {
		b, err := strconv.ParseBool(fields[name])
		errs = append(errs, err)
		return b
	}
	rs.warmup, rs.measured = num("warmup"), num("measured")
	rs.policy = sim.PolicyKind(num("policy"))
	rs.nrh, rs.prac, rs.trefEvery = int(num("nrh")), int(num("prac")), int(num("trefevery"))
	rs.skipOnTREF, rs.noReset = flag("skipontref"), flag("noreset")
	rs.workload = fields["workload"]
	for _, err := range errs {
		if err != nil {
			return rs, fmt.Errorf("run key %q: %w", key, err)
		}
	}
	if _, err := trace.Lookup(rs.workload); err != nil {
		return rs, fmt.Errorf("run key %q: %w", key, err)
	}
	return rs, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
