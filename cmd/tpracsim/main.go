// Command tpracsim runs the TPRAC performance and energy experiments
// (Figures 10-14, Table 5) and prints their reports, optionally writing
// CSV files.
//
// All experiments share one session: independent (variant, workload)
// simulations fan out across -workers goroutines, the session's
// single-flight run cache means -exp all never executes the same
// configuration twice (e.g. Table 5 reuses Figure 13's TPRAC runs), and
// the persistent run store (-store, on by default) memoizes results
// across invocations — a warm second run executes zero new simulations
// and reproduces byte-identical figures.
//
// Grids also shard across machines: -shard i/n executes only the i-th
// deterministic slice of the run keys and writes the results to a shard
// file (-shardout); -merge imports the shard files and assembles the
// figures without simulating, bit-identical to an unsharded run. The
// -dispatch driver automates the whole workflow: it spawns n shard
// workers (re-execing this binary, or any fleet via -dispatch-cmd),
// retries failures and stragglers on other worker slots, auto-merges
// the shard files and renders the figures in one command.
//
// The -store flag also takes a pracstored URL (`-store
// http://host:8420`, see cmd/pracstored): the session then reads through
// a local disk cache into the shared server, and a dispatch fleet
// pointed at one warm server executes nothing anywhere. An unreachable
// or corrupt server degrades to local recompute — never a crash or a
// wrong figure.
//
// Usage:
//
//	tpracsim -exp fig10|fig11|fig12|fig13|fig14|table5|rfmpb|all
//	         [-scale quick|full] [-workers N] [-serial]
//	         [-store DIR|URL|auto|off] [-store-budget SIZE]
//	         [-journal DIR|auto|off]
//	         [-shard i/n [-shardout FILE]]
//	         [-merge FILE,FILE,...] [-csvdir DIR]
//	         [-dispatch N [-dispatch-cmd TEMPLATE] [-dispatch-attempts K]
//	          [-dispatch-min A -dispatch-max B]]
//	tpracsim -store-info|-store-prune [-store DIR|URL|auto]
//	tpracsim -pull http://host:8460 [-pull-token SECRET] [-pull-idle-exit 30s]
//
// -pull turns this process into a pull worker for a pracsimd experiment
// service (see cmd/pracsimd): it leases shard work items from the
// daemon, executes them against its -store, and uploads each shard
// result file, repeating until signaled (or until -pull-idle-exit of
// queue silence). The daemon's lease carries the grid's experiments and
// scale, so a pull worker needs no -exp/-scale of its own.
//
// -store-budget bounds the local store tier's disk footprint (e.g.
// 512MB): least-recently-accessed entries are evicted in the background
// when a write pushes past it, and an evicted entry is an ordinary miss
// — recomputed and usually re-published, never an error. Under
// -dispatch the budget is forwarded to every fleet worker.
//
// -dispatch-max turns the fixed worker pool elastic: the driver starts
// -dispatch-min slots (default 1) and autoscales between the two bounds
// on queue depth and straggler demand. With worker journals, a
// straggler's shard is stolen — the slow attempt is killed and the
// shard requeued on a fresh slot, resuming from its journal — instead
// of speculatively duplicated.
//
// -journal makes a session crash-safe: every completed run (and, under
// -dispatch, every converged shard) is appended to a checksummed journal
// as it finishes, and an interrupted invocation re-run with the same
// arguments resumes from the journal — executing zero already-completed
// simulations, with or without a store — instead of starting over.
// SIGINT/SIGTERM drain and checkpoint (a second signal exits
// immediately).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/dispatch"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/service"
	"pracsim/internal/exp/shard"
	"pracsim/internal/exp/store"
	"pracsim/internal/fault"
	"pracsim/internal/retry"
	"pracsim/internal/sim"
	"pracsim/internal/stats"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tpracsim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	start := time.Now()
	which := flag.String("exp", "fig10", "experiment: fig10, fig11, fig12, fig13, fig14, table5, rfmpb or all")
	scaleName := flag.String("scale", "quick", "quick (8 workloads, short budgets) or full (all 50 workloads)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = all cores)")
	serial := flag.Bool("serial", false, "force single-threaded execution (same results, for debugging)")
	perCycle := flag.Bool("percycle", false, "tick every component every cycle instead of eliding idle cycles (same results, slower)")
	differential := flag.Bool("differential", false, "run every simulation under both clockings and fail on any divergence")
	storeMode := flag.String("store", "auto", "persistent run store: a directory, a pracstored URL (http://host:port), 'auto' (user cache dir) or 'off'")
	storeBudget := flag.String("store-budget", "", "disk budget for the local store tier, e.g. 512MB (default: unbounded); least-recently-accessed entries are evicted when a write pushes past it")
	storeTimeout := flag.Duration("store-timeout", 10*time.Second, "per-attempt deadline for remote store requests")
	storeRetries := flag.Int("store-retries", 3, "per-operation attempt budget for remote store requests (including the first)")
	faults := flag.String("faults", os.Getenv(fault.EnvVar), "deterministic fault schedule, e.g. 'seed=7;store.http.get:err@0.2;dispatch.worker:kill@0.1' (chaos testing; also $"+fault.EnvVar+")")
	storeInfo := flag.Bool("store-info", false, "print the store's entry count, bytes, age range and per-schema footprint, then exit")
	storePrune := flag.Bool("store-prune", false, "delete entries from orphaned (non-current) schema versions, then exit")
	shardArg := flag.String("shard", "", "execute only shard i/n of the run keys and write a shard file instead of reports")
	shardOut := flag.String("shardout", "", "shard result file to write (default shard-i-of-n.runs)")
	mergeArg := flag.String("merge", "", "comma-separated shard files to import before running")
	dispatchN := flag.Int("dispatch", 0, "dispatch the grid to N shard workers and auto-merge their results (0 = off)")
	dispatchCmd := flag.String("dispatch-cmd", "", "worker command template run via sh -c, with {args}/{shard}/{index}/{count}/{slot}/{out} placeholders (default: re-exec this binary)")
	dispatchAttempts := flag.Int("dispatch-attempts", 3, "per-shard attempt budget for -dispatch")
	dispatchMin := flag.Int("dispatch-min", 1, "elastic fleet floor: fewest concurrent worker slots (with -dispatch-max)")
	dispatchMax := flag.Int("dispatch-max", 0, "elastic fleet ceiling: the pool autoscales between -dispatch-min and this on queue depth and stragglers (0 = fixed pool of -dispatch size)")
	journalMode := flag.String("journal", "off", "crash-recovery session journal: a directory, 'auto' (user cache dir, keyed by the session's arguments) or 'off'; an interrupted invocation re-run with the same arguments resumes instead of re-simulating")
	csvDir := flag.String("csvdir", "", "directory to write CSV files into (optional)")
	pullURL := flag.String("pull", "", "run as a pull worker for the pracsimd experiment service at this URL (leases and executes shard work items until signaled)")
	pullToken := flag.String("pull-token", os.Getenv("PRACSIMD_TOKEN"), "bearer token for -pull (default $PRACSIMD_TOKEN)")
	pullIdleExit := flag.Duration("pull-idle-exit", 0, "with -pull: exit cleanly after this long without leased work (0 = run until signaled)")
	flag.Parse()

	if *faults != "" {
		p, err := fault.Parse(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpracsim: %v\n", err)
			os.Exit(2)
		}
		p.Salt = os.Getenv(fault.SaltEnvVar)
		p.LogTo = os.Stderr
		fault.Enable(p)
		// Re-exec'd fleet workers inherit the schedule through the
		// environment (the dispatcher decorrelates them per-attempt via
		// the salt variable).
		os.Setenv(fault.EnvVar, *faults)
	}

	var scale exp.Scale
	switch *scaleName {
	case "quick":
		scale = exp.QuickScale()
	case "full":
		scale = exp.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "tpracsim: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if err := exp.CheckCSVDir(*csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "tpracsim: -csvdir: %v\n", err)
		os.Exit(2)
	}
	scale.Workers = *workers
	scale.Serial = *serial
	scale.PerCycle = *perCycle
	scale.Differential = *differential

	storeBudgetBytes, err := store.ParseByteSize(*storeBudget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpracsim: -store-budget: %v\n", err)
		os.Exit(2)
	}
	st, warn, err := store.Resolve(*storeMode, store.Options{
		Disk: store.DiskOptions{BudgetBytes: storeBudgetBytes},
		HTTP: store.HTTPOptions{
			Timeout:  *storeTimeout,
			Attempts: *storeRetries,
		},
	})
	if warn != "" {
		fmt.Fprintln(os.Stderr, "tpracsim: "+warn)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *storeInfo || *storePrune {
		if st == nil {
			fmt.Fprintln(os.Stderr, "tpracsim: -store-info/-store-prune need a store; pass -store DIR or -store http://host:port")
			os.Exit(2)
		}
		runStoreMaintenance(st, *storePrune, *storeInfo)
		return
	}
	if *pullURL != "" {
		if *dispatchN > 0 || *shardArg != "" || *mergeArg != "" {
			fmt.Fprintln(os.Stderr, "tpracsim: -pull is exclusive with -dispatch/-shard/-merge (the daemon assigns the work)")
			os.Exit(2)
		}
		runPull(*pullURL, *pullToken, st, *workers, *pullIdleExit)
		return
	}
	if *dispatchMax > 0 && *dispatchMin > *dispatchMax {
		fmt.Fprintf(os.Stderr, "tpracsim: -dispatch-min %d exceeds -dispatch-max %d\n", *dispatchMin, *dispatchMax)
		os.Exit(2)
	}
	if *dispatchN > 0 && (*perCycle || *differential) {
		// The validation clockings exist to actually execute every
		// simulation here; a session in those modes ignores imported
		// shard results by design, so a dispatched fleet's work would
		// be silently discarded and the grid re-run locally.
		fmt.Fprintln(os.Stderr, "tpracsim: -dispatch cannot be combined with -percycle/-differential (validation modes must execute locally)")
		os.Exit(2)
	}
	var sp shard.Spec
	if *shardArg != "" {
		if *dispatchN > 0 {
			fmt.Fprintln(os.Stderr, "tpracsim: -shard and -dispatch are mutually exclusive (the dispatcher assigns shards itself)")
			os.Exit(2)
		}
		if sp, err = shard.Parse(*shardArg); err != nil {
			fmt.Fprintf(os.Stderr, "tpracsim: %v\n", err)
			os.Exit(2)
		}
		if *shardOut == "" {
			*shardOut = fmt.Sprintf("shard-%d-of-%d.runs", sp.Index, sp.Count)
		}
	}

	if (*perCycle || *differential) && *journalMode != "off" {
		// The validation clockings must execute every simulation; replayed
		// journal results would silently validate nothing (same reason the
		// store is bypassed in these modes).
		fmt.Fprintln(os.Stderr, "tpracsim: -journal is ignored with -percycle/-differential (validation modes must execute)")
		*journalMode = "off"
	}
	// The fingerprint is what makes resume safe: only an invocation
	// asking for the same work (schema, experiments, scale budgets,
	// workload set, shard slice) adopts this journal. Scheduling knobs
	// (-workers, -serial) and the store never change results, so they are
	// deliberately absent.
	jl, _ := resolveJournal(*journalMode, journal.Fingerprint(
		fmt.Sprintf("schema=%d", sim.SchemaVersion),
		"exp="+*which,
		"scale="+*scaleName,
		fmt.Sprintf("warmup=%d", scale.Warmup),
		fmt.Sprintf("measured=%d", scale.Measured),
		"workloads="+strings.Join(scale.Workloads, ","),
		"shard="+sp.String(),
	))

	// First signal: drain and checkpoint — a running dispatch fleet is
	// cancelled (group-killing its workers) and the journal synced, so a
	// re-invocation resumes. Second signal: exit immediately.
	dispatchCtx, cancelDispatch := context.WithCancel(context.Background())
	defer cancelDispatch()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	dispatching := *dispatchN > 0
	go func() {
		<-sigs
		if dispatching {
			fmt.Fprintln(os.Stderr, "tpracsim: signal received — draining fleet and checkpointing (repeat to exit immediately)")
			cancelDispatch()
			<-sigs
			os.Exit(130)
		}
		if jl != nil {
			jl.Sync()
			fmt.Fprintf(os.Stderr, "tpracsim: signal received — journal checkpointed at %s; re-run with the same arguments to resume\n", jl.Path())
		} else {
			fmt.Fprintln(os.Stderr, "tpracsim: signal received")
		}
		os.Exit(130)
	}()

	session := exp.NewRunnerWith(scale, exp.SessionOptions{Store: st, Shard: sp, Journal: jl})
	if *mergeArg != "" {
		// Tolerate list debris (trailing or doubled commas, stray
		// spaces) — but an all-debris list is a mistake worth naming,
		// not an empty no-op merge.
		var files []string
		for _, f := range strings.Split(*mergeArg, ",") {
			if f = strings.TrimSpace(f); f != "" {
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			fatalf("-merge %q names no shard files", *mergeArg)
		}
		var n int
		if _, err := importWithRetry(session, files, &n); err != nil {
			fatalf("merging shards: %v", err)
		}
		fmt.Printf("merged %d runs from %d shard file(s)\n", n, len(files))
	}

	// Validate the selection before any work — in particular before a
	// dispatch fleet spawns and burns its retry budget on workers that
	// would all exit with this same error. The selection grammar lives in
	// the exp package (ExpandExperiments), shared with pracsimd's grid
	// specs.
	selected, err := exp.ExpandExperiments([]string{*which})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpracsim: %v\n", err)
		os.Exit(2)
	}

	if *dispatchN > 0 {
		if err := runDispatch(dispatchCtx, session, st, jl, *dispatchN, *dispatchCmd, *dispatchAttempts,
			*dispatchMin, *dispatchMax, *storeBudget,
			*which, *scaleName, *workers, *serial); err != nil {
			if errors.Is(err, dispatch.ErrInterrupted) {
				if jl != nil {
					jl.Close()
					fmt.Fprintf(os.Stderr, "tpracsim: %v — re-run with the same arguments to resume\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "tpracsim: %v (no -journal: converged shards will re-run)\n", err)
				}
				os.Exit(130)
			}
			fatalf("%v", err)
		}
	}

	for _, name := range selected {
		fmt.Printf("running %s at %s scale...\n", name, *scaleName)
		before := session.Executed()
		res, err := session.Run(name)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Printf("(%d new simulations; session cache holds %d)\n",
			session.Executed()-before, session.CachedRuns())
		if jl != nil {
			_ = jl.AppendDone(name)
		}
		if sp.Count > 0 {
			// A sharded session computes only its slice of the grid;
			// its figures are partial by design and are rendered by the
			// merge invocation instead.
			continue
		}
		fmt.Println(res.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fatalf("writing %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if sp.Count > 0 {
		n, err := session.ExportShard(*shardOut)
		if err != nil {
			fatalf("%v", err)
		}
		sum := session.Summary()
		fmt.Printf("shard %s: %d runs (%d executed, rest store-warm), wrote %s\n",
			sp, n, sum.Executed, *shardOut)
		// The machine-readable trailer the dispatch driver folds into
		// its per-shard report.
		fmt.Println(dispatch.Summary{
			Shard:    sp.String(),
			Runs:     n,
			Executed: sum.Executed,
			WallMS:   time.Since(start).Milliseconds(),
			Store:    sum.Store,
			Faults:   fault.Fired(),
			Journal:  sum.Journal,
		}.Line())
	}
	// Execution telemetry: store traffic, aggregate simulation rate,
	// elision wins and the straggler simulations that dominated the
	// sweep's wall-clock.
	fmt.Println(session.TelemetryReport(5))
	if jl != nil {
		if err := jl.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tpracsim: closing journal: %v\n", err)
		}
	}
}

// runPull serves -pull: the pull-worker loop against a pracsimd daemon.
// SIGINT/SIGTERM drain — the current item finishes (or its ack is
// retried) before the loop exits with a summary.
func runPull(url, token string, st *store.Store, workers int, idleExit time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	host, _ := os.Hostname()
	sum, err := service.RunWorker(ctx, service.WorkerOptions{
		URL:      url,
		Token:    token,
		Name:     fmt.Sprintf("%s-%d", host, os.Getpid()),
		Store:    st,
		Workers:  workers,
		IdleExit: idleExit,
		Log:      log.New(os.Stderr, "tpracsim: ", 0),
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(sum)
	if n := fault.Fired(); n > 0 {
		fmt.Printf("faults injected: %d\n", n)
	}
}

// resolveJournal opens the session journal for -journal: "off" (nil),
// "auto" (a per-fingerprint directory under the user cache dir) or an
// explicit directory. Failures degrade to running without a journal —
// durability is never worth failing a run that can simply execute.
func resolveJournal(mode, fingerprint string) (*journal.Journal, *journal.Recovery) {
	if mode == "" || mode == "off" {
		return nil, nil
	}
	dir := mode
	if mode == "auto" {
		base, err := os.UserCacheDir()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpracsim: -journal auto: %v; running without a journal\n", err)
			return nil, nil
		}
		dir = filepath.Join(base, "tpracsim", "journal", fingerprint)
	}
	jl, rec, err := journal.Open(filepath.Join(dir, "session.journal"), journal.Options{
		Schema:      sim.SchemaVersion,
		Fingerprint: fingerprint,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpracsim: opening journal: %v; running without a journal\n", err)
		return nil, nil
	}
	if rec.Rotated != "" {
		fmt.Fprintf(os.Stderr, "tpracsim: journal: prior journal rotated aside: %s\n", rec.Rotated)
	}
	if !rec.Fresh {
		msg := fmt.Sprintf("journal: resuming — %d record(s) replayed (%d run(s), %d shard(s))",
			rec.Records, rec.Runs, len(rec.Shards))
		if rec.TruncatedBytes > 0 {
			msg += fmt.Sprintf(", %d torn-tail byte(s) truncated", rec.TruncatedBytes)
		}
		fmt.Println(msg)
	}
	return jl, rec
}

// runDispatch fans the selected experiments out to shard workers,
// reports the per-shard fleet summary and merges the shard files into
// the session, which then assembles figures from fully-warm caches.
// Errors return (rather than exiting) so the deferred work-directory
// cleanup runs on failure paths too.
func runDispatch(ctx context.Context, session *exp.Runner, st *store.Store, jl *journal.Journal,
	n int, template string, attempts, minSlots, maxSlots int, storeBudget string,
	which, scaleName string, workers int, serial bool) error {
	// Workers re-run this binary's own configuration, minus the
	// rendering flags: each executes its shard of the same grid against
	// the same store and emits a shard file. A local pool (no template)
	// shares this machine's cores, so by default each worker gets an
	// equal slice instead of all inheriting -workers 0 (all cores) and
	// oversubscribing the CPU n-fold; an explicit -workers or a fleet
	// template (remote hosts own their cores) passes through untouched.
	// An elastic pool divides by its ceiling — that is the most workers
	// that ever run at once.
	if template == "" && workers == 0 && !serial {
		pool := n
		if maxSlots > 0 && maxSlots < pool {
			pool = maxSlots
		}
		workers = runtime.NumCPU() / pool
		if workers < 1 {
			workers = 1
		}
	}
	args := []string{"-exp", which, "-scale", scaleName, "-workers", strconv.Itoa(workers)}
	if serial {
		args = append(args, "-serial")
	}
	// Fleet workers run the same lifecycle policy as the driver: their
	// local disk tiers (or the shared directory store) stay under the
	// same budget.
	if storeBudget != "" {
		args = append(args, "-store-budget", storeBudget)
	}
	// Workers re-resolve the spec themselves: a directory reopens the
	// same disk store, a pracstored URL gives every fleet worker its own
	// local tier over the one shared server.
	if st != nil {
		args = append(args, "-store", st.Spec())
	} else {
		args = append(args, "-store", "off")
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for dispatch: %w", err)
	}
	// With a journal, the work directory is stable (next to the journal
	// file) and survives this process: a restarted driver must find the
	// converged shard files the journal points at. Without one, a
	// throwaway temp directory as before.
	var workDir, workerJournalDir string
	if jl != nil {
		base := filepath.Dir(jl.Path())
		workDir = filepath.Join(base, "dispatch")
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return err
		}
		workerJournalDir = filepath.Join(base, "workers")
	} else {
		if workDir, err = os.MkdirTemp("", "tpracsim-dispatch-"); err != nil {
			return err
		}
		defer os.RemoveAll(workDir)
	}

	res, err := dispatch.Run(dispatch.Options{
		Shards:           n,
		Workers:          n,
		MinWorkers:       minSlots,
		MaxWorkers:       maxSlots,
		Argv:             append([]string{exe}, args...),
		Template:         template,
		Attempts:         attempts,
		Dir:              workDir,
		Schema:           sim.SchemaVersion,
		Log:              os.Stdout,
		StragglerFactor:  3,
		StragglerMin:     30 * time.Second,
		Journal:          jl,
		Context:          ctx,
		WorkerJournalDir: workerJournalDir,
	})
	if err != nil {
		return err
	}

	t := &stats.Table{Header: []string{"shard", "slot", "attempts", "stolen", "backoff-ms", "runs", "executed", "wall-s", "store-hits", "store-misses", "remote-hits", "remote-retries", "faults", "j-resume", "j-append"}}
	var totalBackoff time.Duration
	for _, r := range res.Reports {
		executed, hits, misses, rhits, rretries, faults := "?", "?", "?", "?", "?", "?"
		jresume, jappend := "?", "?"
		if r.HasSummary {
			executed = strconv.FormatInt(r.Summary.Executed, 10)
			hits = strconv.FormatInt(r.Summary.Store.Hits, 10)
			misses = strconv.FormatInt(r.Summary.Store.Misses, 10)
			rhits = strconv.FormatInt(r.Summary.Store.Remote.Hits, 10)
			rretries = strconv.FormatInt(r.Summary.Store.Remote.Retries, 10)
			faults = strconv.FormatInt(r.Summary.Faults, 10)
			jresume = strconv.FormatInt(r.Summary.Journal.ResumeHits, 10)
			jappend = strconv.FormatInt(r.Summary.Journal.Appended, 10)
		}
		slot := strconv.Itoa(r.Slot)
		if r.Adopted {
			// No worker ran this invocation: the shard came straight from
			// the driver journal's recovered state.
			slot, executed = "adopted", "0"
		}
		totalBackoff += r.Backoff
		t.Add(r.Shard.String(), slot, r.Attempts, r.Stolen, r.Backoff.Milliseconds(), r.Runs, executed, r.Wall.Seconds(), hits, misses, rhits, rretries, faults, jresume, jappend)
	}
	summary := fmt.Sprintf("dispatch: %d shard(s) converged in %.1fs (%d adopted from journal), %d retried attempt(s), %dms total backoff",
		len(res.Reports), res.Wall.Seconds(), res.Adopted(), res.Retries(), totalBackoff.Milliseconds())
	if s := res.Steals(); s > 0 {
		summary += fmt.Sprintf(", %d stolen shard(s)", s)
	}
	if maxSlots > 0 {
		summary += fmt.Sprintf(", pool %d-%d (peak %d, %d up/%d down)",
			minSlots, maxSlots, res.PeakWorkers, res.ScaleUps, res.ScaleDowns)
	}
	fmt.Printf("%s\n%s", summary, t.String())

	// The shard files just validated, but the merge re-reads them; a
	// transient read failure (NFS hiccup, an injected shard.read fault)
	// should cost a retry, not the whole dispatched fleet's work.
	var imported int
	if _, err := importWithRetry(session, res.Files, &imported); err != nil {
		return fmt.Errorf("merging dispatched shards: %w", err)
	}
	if jl != nil {
		_ = jl.AppendMerge(res.Files, imported)
	}
	fmt.Printf("merged %d runs from %d dispatched shard(s)\n", imported, len(res.Files))
	return nil
}

// importWithRetry merges shard files under the unified retry policy:
// shard reads are plain file I/O, so a transient failure costs a paced
// re-read rather than discarding a fleet's worth of simulation.
func importWithRetry(session *exp.Runner, files []string, imported *int) (int, error) {
	return retry.Policy{Attempts: 3, Base: 100 * time.Millisecond}.Do(
		context.Background(), "merge shards", func(context.Context, int) error {
			n, err := session.ImportShards(files...)
			if err != nil {
				return err
			}
			*imported = n
			return nil
		})
}

// runStoreMaintenance serves -store-info / -store-prune: the
// maintenance surface works identically against a directory and a
// pracstored server, because both sit behind the same Backend interface.
// Prune runs before info, so `-store-prune -store-info` shows the
// after-state.
func runStoreMaintenance(st *store.Store, prune, info bool) {
	b := st.Backend()
	if prune {
		current := fmt.Sprintf("v%d", sim.SchemaVersion)
		n, bytes, err := store.Prune(b, current)
		if err != nil {
			fatalf("pruning %s: %v", st.Spec(), err)
		}
		fmt.Printf("pruned %d entries (%.1f KB) from schema versions other than %s\n",
			n, float64(bytes)/1024, current)
	}
	if info {
		rep, err := store.Collect(b)
		if err != nil {
			fatalf("listing %s: %v", st.Spec(), err)
		}
		fmt.Println(rep.Render())
		fmt.Printf("current schema: v%d\n", sim.SchemaVersion)
	}
}
