// Command secanalysis runs the TPRAC security analysis: the Figure 7 TMAX
// sweep, the solved TB-Window per RowHammer threshold (solved in parallel
// across thresholds), and (optionally) an empirical Feinting attack
// validating a solved window against the live simulator. The Figure 7
// result is memoized in the persistent run store (-store, on by
// default); the empirical validation always runs live.
//
// Usage:
//
//	secanalysis [-empirical] [-nbo N] [-store DIR|URL|auto|off]
//	            [-journal DIR|off] [-csvdir DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pracsim/internal/analysis"
	"pracsim/internal/dram"
	"pracsim/internal/exp"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/store"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
)

func main() {
	empirical := flag.Bool("empirical", false, "also run a live Feinting attack against the solved window")
	nbo := flag.Int("nbo", 256, "Back-Off threshold for the empirical validation")
	storeMode := flag.String("store", "auto", "persistent result store: a directory, a pracstored URL (http://host:port), 'auto' (user cache dir) or 'off'")
	storeTimeout := flag.Duration("store-timeout", 10*time.Second, "per-attempt deadline for remote store requests")
	journalMode := flag.String("journal", "off", "crash-recovery journal directory ('off' = none)")
	csvDir := flag.String("csvdir", "", "directory to write fig7.csv into (optional)")
	flag.Parse()
	if *nbo < 1 {
		fmt.Fprintf(os.Stderr, "secanalysis: -nbo: must be at least 1, got %d\n", *nbo)
		os.Exit(2)
	}
	if err := exp.CheckCSVDir(*csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "secanalysis: -csvdir: %v\n", err)
		os.Exit(2)
	}

	st, warn, err := store.ResolveBackendWith(*storeMode, store.HTTPOptions{Timeout: *storeTimeout})
	if warn != "" {
		fmt.Fprintln(os.Stderr, "secanalysis: "+warn)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "secanalysis:", err)
		os.Exit(1)
	}
	var jl *journal.Journal
	if *journalMode != "" && *journalMode != "off" {
		j, rec, jerr := journal.Open(filepath.Join(*journalMode, "session.journal"), journal.Options{
			Schema:      sim.SchemaVersion,
			Fingerprint: journal.Fingerprint(fmt.Sprintf("schema=%d", sim.SchemaVersion), "cmd=secanalysis"),
		})
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "secanalysis: opening journal: %v; running without a journal\n", jerr)
		} else {
			jl = j
			if !rec.Fresh {
				fmt.Printf("journal: resuming — %d record(s) replayed\n", rec.Records)
			}
			defer jl.Close()
		}
	}
	res, err := exp.MemoWith(st, jl, "secanalysis/fig7", func() (exp.Fig7Result, error) {
		return exp.RunFig7()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "secanalysis:", err)
		os.Exit(1)
	}
	if st != nil {
		fmt.Println(st.Stats().Report(st.Spec()))
	}
	if jl != nil {
		fmt.Println(jl.Stats().Report(jl.Path()))
	}
	fmt.Println(res.Render())
	if *csvDir != "" {
		path := filepath.Join(*csvDir, "fig7.csv")
		if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "secanalysis:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}

	if !*empirical {
		return
	}
	dcfg := dram.DefaultConfig(*nbo)
	// A scaled refresh window keeps the validation to seconds while
	// preserving the attack's structure.
	dcfg.Timing.TREFW = ticks.FromMS(2)
	p := analysis.ParamsFromDRAM(dcfg)
	window, err := p.SolveWindow(*nbo, dcfg.PRAC.ResetOnREFW, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secanalysis:", err)
		os.Exit(1)
	}
	fmt.Printf("empirical Feinting attack against TB-Window=%v (NBO=%d, scaled tREFW=%v)...\n",
		window, *nbo, dcfg.Timing.TREFW)
	att, err := analysis.RunEmpiricalFeinting(analysis.EmpiricalConfig{DRAM: dcfg, Window: window})
	if err != nil {
		fmt.Fprintln(os.Stderr, "secanalysis:", err)
		os.Exit(1)
	}
	fmt.Printf("pool=%d rounds=%d target-max-acts=%d alerts=%d tb-rfms=%d\n",
		att.PoolSize, att.Rounds, att.TargetMaxActs, att.Alerts, att.TBRFMs)
	if att.Alerts == 0 && int(att.TargetMaxActs) < *nbo {
		fmt.Println("PASS: no Alert Back-Off was reachable under the Feinting attack")
	} else {
		fmt.Println("FAIL: the attack reached the Back-Off threshold")
		os.Exit(1)
	}
}
