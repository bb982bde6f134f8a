// Command pracleak runs the PRACLeak attack experiments (Figures 3, 4, 5
// and 9, Table 2) and prints their reports, optionally writing CSV files.
//
// The sweeps (panels of Figure 3, Table 2's channel configurations, the
// key values of Figures 5 and 9) are independent simulations and fan out
// across all cores; -workers caps that concurrency. Results never depend
// on the worker count. Each experiment's whole result is memoized in the
// persistent run store (-store, on by default), keyed by experiment
// parameters and the simulator schema version, so a warm rerun executes
// no simulations and reproduces byte-identical reports.
//
// Usage:
//
//	pracleak -exp fig3|table2|fig4|fig5|fig9|all [-quick] [-workers N]
//	         [-store DIR|URL|auto|off] [-journal DIR|off] [-csvdir DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/store"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
)

type report interface {
	Render() string
	CSV() string
}

// memo adapts exp.MemoWith to the report interface: the concrete result
// is memoized (content-addressed by key, crash-journaled when -journal
// is set), the caller sees a report.
func memo[T report](st *store.Store, jl *journal.Journal, key string, fn func() (T, error)) (report, error) {
	return exp.MemoWith(st, jl, key, fn)
}

// openJournal opens the crash-recovery journal for -journal; failures
// degrade to running without one.
func openJournal(mode string, fpParts ...string) *journal.Journal {
	if mode == "" || mode == "off" {
		return nil
	}
	jl, rec, err := journal.Open(filepath.Join(mode, "session.journal"), journal.Options{
		Schema:      sim.SchemaVersion,
		Fingerprint: journal.Fingerprint(fpParts...),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pracleak: opening journal: %v; running without a journal\n", err)
		return nil
	}
	if !rec.Fresh {
		fmt.Printf("journal: resuming — %d record(s) replayed\n", rec.Records)
	}
	return jl
}

func main() {
	which := flag.String("exp", "all", "experiment: fig3, table2, fig4, fig5, fig9 or all")
	quick := flag.Bool("quick", false, "reduced sweep sizes for fast runs")
	workers := flag.Int("workers", 0, "concurrent sweep simulations (0 = all cores, 1 = serial)")
	storeMode := flag.String("store", "auto", "persistent result store: a directory, a pracstored URL (http://host:port), 'auto' (user cache dir) or 'off'")
	storeTimeout := flag.Duration("store-timeout", 10*time.Second, "per-attempt deadline for remote store requests")
	journalMode := flag.String("journal", "off", "crash-recovery journal directory ('off' = none); an interrupted run re-invoked with the same arguments skips completed experiments")
	csvDir := flag.String("csvdir", "", "directory to write CSV files into (optional)")
	flag.Parse()
	if err := exp.CheckCSVDir(*csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "pracleak: -csvdir: %v\n", err)
		os.Exit(2)
	}

	st, warn, err := store.ResolveBackendWith(*storeMode, store.HTTPOptions{Timeout: *storeTimeout})
	if warn != "" {
		fmt.Fprintln(os.Stderr, "pracleak: "+warn)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pracleak: %v\n", err)
		os.Exit(1)
	}
	jl := openJournal(*journalMode,
		fmt.Sprintf("schema=%d", sim.SchemaVersion), "cmd=pracleak",
		"exp="+*which, fmt.Sprintf("quick=%t", *quick))

	runs := map[string]func() (report, error){
		"fig3": func() (report, error) {
			d := ticks.FromMS(2)
			if *quick {
				d = ticks.FromUS(200)
			}
			return memo(st, jl, fmt.Sprintf("pracleak/fig3/dur=%d", d), func() (exp.Fig3Result, error) {
				return exp.RunFig3(d, *workers)
			})
		},
		"table2": func() (report, error) {
			symbols := 64
			if *quick {
				symbols = 8
			}
			return memo(st, jl, fmt.Sprintf("pracleak/table2/symbols=%d", symbols), func() (exp.Table2Result, error) {
				return exp.RunTable2(symbols, *workers)
			})
		},
		"fig4": func() (report, error) {
			return memo(st, jl, "pracleak/fig4/enc=200", func() (exp.Fig4Result, error) {
				return exp.RunFig4(200)
			})
		},
		"fig5": func() (report, error) {
			stride := 4
			if *quick {
				stride = 32
			}
			return memo(st, jl, fmt.Sprintf("pracleak/fig5/enc=200/stride=%d", stride), func() (exp.Fig5Result, error) {
				return exp.RunFig5(200, stride, *workers)
			})
		},
		"fig9": func() (report, error) {
			stride := 8
			if *quick {
				stride = 64
			}
			return memo(st, jl, fmt.Sprintf("pracleak/fig9/enc=200/stride=%d", stride), func() (exp.Fig9Result, error) {
				return exp.RunFig9(200, stride, *workers)
			})
		},
	}
	order := []string{"fig3", "table2", "fig4", "fig5", "fig9"}

	selected := order
	if *which != "all" {
		if _, ok := runs[*which]; !ok {
			fmt.Fprintf(os.Stderr, "pracleak: unknown experiment %q\n", *which)
			os.Exit(2)
		}
		selected = []string{*which}
	}

	for _, name := range selected {
		start := time.Now()
		res, err := runs[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pracleak: %s: %v\n", name, err)
			os.Exit(1)
		}
		// Per-experiment wall-clock, so stragglers among the sweeps are
		// visible (the simulations themselves elide idle cycles; see
		// README "The clock model"). A store-warm experiment reports
		// milliseconds here.
		fmt.Printf("%s finished in %.2fs\n", name, time.Since(start).Seconds())
		fmt.Println(res.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "pracleak: writing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if st != nil {
		fmt.Println(st.Stats().Report(st.Spec()))
	}
	if jl != nil {
		fmt.Println(jl.Stats().Report(jl.Path()))
		jl.Close()
	}
}
