package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/service"
	"pracsim/internal/retry"
)

// The service-jobs grid: fig10 at 2k + 4k instructions per core, split
// into the service's maximum of 64 shard slices. Shards owning no key
// make no item, so the 16 run keys become about one item each. Such
// small items balance across the two workers; with 4, 8 or 16 slices
// the keys hashed unevenly into items and wall time swung with the
// seed while CPU time did not.
const (
	jobScale    = "bench"
	jobExp      = "fig10"
	jobWarmup   = 2_000
	jobMeasured = 4_000
	jobShards   = service.MaxShards
	// Two tenants: the first submits cold, the second resubmits warm.
	tenantCold = "tenant-a"
	tenantWarm = "tenant-b"
)

// poll paces the client's status polls and the idle workers' lease
// polls. It bounds how long a job can sit ready but unseen.
var poll = retry.Policy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond}

// daemon is one in-process pracsimd over loopback with an empty store,
// and the pull workers it was opened with.
type daemon struct {
	dir    string
	srv    *service.Server
	http   *http.Server
	url    string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func jobScales(in Inputs) map[string]exp.Scale {
	return map[string]exp.Scale{jobScale: {Warmup: jobWarmup, Measured: jobMeasured, Workloads: in.Jobs}}
}

// openDaemon starts the service on a fresh directory and a loopback
// port, with the given number of in-process pull workers of one
// simulation each.
func openDaemon(in Inputs, dir string, workers int) (*daemon, error) {
	srv, _, err := service.New(service.Options{
		Dir:     dir,
		Tokens:  tenantCold + "," + tenantWarm,
		Scales:  jobScales(in),
		Workers: benchWorkers,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		dir: dir, srv: srv, cancel: cancel,
		http: &http.Server{Handler: srv},
		url:  "http://" + ln.Addr().String(),
	}
	srv.Start(ctx)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.http.Serve(ln) // returns ErrServerClosed on close
	}()
	for i := 0; i < workers; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_, _ = service.RunWorker(ctx, service.WorkerOptions{
				URL: d.url, Token: tenantCold, Name: fmt.Sprintf("w%d", i),
				Workers: 1, Poll: poll,
			})
		}()
	}
	return d, nil
}

// close stops the workers and the daemon and waits for every goroutine
// it started. It closes connections outright: a graceful Shutdown would
// wait up to 5s on a connection a cancelled worker had just dialled.
func (d *daemon) close() error {
	d.cancel()
	err := d.http.Close()
	d.wg.Wait()
	return errors.Join(err, d.srv.Close())
}

// job submits the grid as one tenant, waits for done and fetches the CSV.
func (d *daemon) job(ctx context.Context, token string) (service.JobStatus, []byte, error) {
	c := service.NewClient(d.url, token)
	st, err := c.Submit(ctx, service.GridSpec{Exps: []string{jobExp}, Scale: jobScale, Shards: jobShards})
	if err != nil {
		return st, nil, err
	}
	if st, err = c.Wait(ctx, st.ID, poll.Base); err != nil {
		return st, nil, err
	}
	if st.State != "done" {
		return st, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	csv, err := c.Result(ctx, st.ID, jobExp+".csv")
	return st, csv, err
}

// serviceRound is one daemon life: a cold job, then a warm resubmit
// from a second tenant.
type serviceRound struct {
	in         Inputs
	d          *daemon
	cold, warm service.JobStatus
	csvs       [2][]byte
	direct     *[]byte // shared across rounds; computed once
}

// serviceSetup opens the daemon on an empty directory with its two pull
// workers.
func serviceSetup(direct *[]byte) func(Inputs, string) (round, error) {
	return func(in Inputs, dir string) (round, error) {
		d, err := openDaemon(in, dir, benchWorkers)
		if err != nil {
			return nil, err
		}
		return &serviceRound{in: in, d: d, direct: direct}, nil
	}
}

func (s *serviceRound) run() error {
	ctx := context.Background()
	var err error
	if s.cold, s.csvs[0], err = s.d.job(ctx, tenantCold); err != nil {
		return fmt.Errorf("cold job: %w", err)
	}
	if s.warm, s.csvs[1], err = s.d.job(ctx, tenantWarm); err != nil {
		return fmt.Errorf("warm job: %w", err)
	}
	return nil
}

func (s *serviceRound) outputs() ([]output, error) {
	if *s.direct == nil {
		// The cross-check reference: the same grid from a plain
		// in-process session, made once per run outside any window.
		sess := exp.NewRunner(exp.Scale{Warmup: jobWarmup, Measured: jobMeasured, Workloads: s.in.Jobs, Workers: benchWorkers})
		rep, err := sess.Run(jobExp)
		if err != nil {
			return nil, err
		}
		*s.direct = []byte(rep.CSV())
	}
	return []output{
		{"job/cold/" + jobExp + ".csv", s.csvs[0]},
		{"job/warm/" + jobExp + ".csv", s.csvs[1]},
	}, nil
}

// problems cross-checks the two job CSVs against the direct session and
// the job shapes against what cold and warm submissions must do.
func (s *serviceRound) problems() []string {
	var out []string
	for i, name := range []string{"cold", "warm"} {
		if string(s.csvs[i]) != string(*s.direct) {
			out = append(out, name+" job CSV differs from a direct session's CSV")
		}
	}
	if s.cold.Items == 0 || s.cold.WarmKeys != 0 || s.cold.Executed != int64(s.cold.TotalKeys) {
		out = append(out, fmt.Sprintf("cold job had %d items, %d warm keys and %d of %d keys executed",
			s.cold.Items, s.cold.WarmKeys, s.cold.Executed, s.cold.TotalKeys))
	}
	if s.warm.Items != 0 || s.warm.Executed != 0 {
		out = append(out, fmt.Sprintf("warm resubmit had %d items and executed %d, want 0 and 0", s.warm.Items, s.warm.Executed))
	}
	return out
}

func (s *serviceRound) modelLines() []string { return nil }

func (s *serviceRound) close() error {
	err := s.d.close()
	return errors.Join(err, os.RemoveAll(filepath.Clean(s.d.dir)))
}
