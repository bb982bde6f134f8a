package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/shard"
	"pracsim/internal/retry"
)

// Job states. A job moves queued → running → finalizing → done; failed
// and canceled are the other terminal states.
const (
	StateQueued     = "queued"
	StateRunning    = "running"
	StateFinalizing = "finalizing"
	StateDone       = "done"
	StateFailed     = "failed"
	StateCanceled   = "canceled"
)

// terminal reports whether a job state accepts no further transitions.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Queue errors the HTTP layer maps onto status codes.
var (
	// ErrQuota rejects a submission that would exceed the token's
	// concurrent-job quota (429).
	ErrQuota = errors.New("service: active-job quota exceeded")
	// ErrNoLease rejects an ack/heartbeat/fail for a lease this daemon
	// does not hold — expired, already acked, or voided by a restart.
	// The worker discards its attempt; the item is (or will be) re-leased.
	ErrNoLease = errors.New("service: unknown or expired lease")
	// ErrClosed rejects operations on a draining queue.
	ErrClosed = errors.New("service: queue is draining")
)

// JobStatus is the wire form of a job's state — what GET /v1/jobs/{id}
// returns and what every SSE event carries.
type JobStatus struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Priority int      `json:"priority"`
	Exps     []string `json:"exps"`
	Scale    string   `json:"scale"`
	// Items counts this job's shard work items; a fully-warm grid has
	// zero and goes straight to finalizing.
	Items   int `json:"items"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Acked   int `json:"acked"`
	// TotalKeys is the grid's distinct run-key count; WarmKeys of those
	// were already in the store at submission.
	TotalKeys int `json:"total_keys"`
	WarmKeys  int `json:"warm_keys"`
	// Executed sums the simulations workers actually ran for this job
	// (store hits excluded); FinalizeExecuted counts runs the finalize
	// session had to execute itself (0 unless results were lost).
	Executed         int64    `json:"executed"`
	FinalizeExecuted int64    `json:"finalize_executed"`
	Results          []string `json:"results,omitempty"`
	Error            string   `json:"error,omitempty"`
}

// LeaseGrant is the wire form of a leased work item: everything a pull
// worker needs to execute its shard slice of the grid and nothing more.
// Scale budgets travel resolved (not by name) so workers never need the
// daemon's scale table.
type LeaseGrant struct {
	ID        string   `json:"id"`
	Job       string   `json:"job"`
	Item      string   `json:"item"` // shard "i/n"
	Exps      []string `json:"exps"`
	Warmup    int64    `json:"warmup"`
	Measured  int64    `json:"measured"`
	Workloads []string `json:"workloads"`
	// TTLSecs is the lease's heartbeat budget: miss it and the item is
	// re-leased to someone else.
	TTLSecs int `json:"ttl_secs"`
}

// item states.
const (
	itemPending = iota
	itemLeased
	itemAcked
)

// workItem is one shard slice of a job's grid.
type workItem struct {
	shard     shard.Spec
	state     int
	attempts  int       // lease grants so far (journal-replayed across restarts)
	notBefore time.Time // requeue pacing after an expiry or failure
	file      string    // acked shard result file
	runs      int       // runs in the acked file
}

// job is the queue's record of one submitted grid.
type job struct {
	id       string
	token    string
	priority int
	spec     GridSpec
	exps     []string
	scale    exp.Scale
	state    string
	items    []*workItem
	seq      int // submission order within a priority (FIFO per token)

	totalKeys, warmKeys int
	executed            int64 // worker-reported new simulations
	finalizeExec        int64
	errMsg              string
	results             []string
	finalizeStarted     bool

	subs map[chan JobStatus]struct{}
}

// lease is one outstanding grant.
type lease struct {
	id      string
	job     *job
	item    int
	worker  string
	expires time.Time
}

// QueueOptions configures the job queue.
type QueueOptions struct {
	// Journal persists submissions, grants and acks; required.
	Journal *journal.Journal
	// LeaseTTL is how long a worker may go without a heartbeat before
	// its item is re-leased (default 30s).
	LeaseTTL time.Duration
	// Attempts is the per-item lease budget; an item granted this many
	// times without an ack fails its job (default 3).
	Attempts int
	// Quota caps a token's concurrently active jobs (0 = unlimited).
	Quota int
	// Requeue paces re-leasing after an expiry or failure, so a
	// crash-looping worker does not hot-spin one item.
	Requeue retry.Policy
}

// Queue is the journal-backed job/work-item state machine. All methods
// are safe for concurrent use; journal appends and event delivery happen
// outside the state lock.
type Queue struct {
	opts QueueOptions

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submission order
	leases  map[string]*lease
	jobSeq  int            // persistent: restored from journaled ids
	leaseSe int            // process-local: restarts void leases
	rr      map[int]string // per-priority round-robin cursor (last token served)
	closed  bool

	// counters for /metrics, guarded by mu
	submits, dedupJobs, grants, acks, expiries, itemFails int64
}

// NewQueue builds an empty queue; Restore folds journal state in.
func NewQueue(opts QueueOptions) *Queue {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	if opts.Requeue.Base <= 0 {
		opts.Requeue = retry.Policy{Base: 500 * time.Millisecond, Max: 10 * time.Second}
	}
	return &Queue{
		opts:   opts,
		jobs:   make(map[string]*job),
		leases: make(map[string]*lease),
		rr:     make(map[int]string),
	}
}

// statusLocked snapshots a job for the wire.
func statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Priority: j.priority,
		Exps: j.exps, Scale: j.spec.Scale,
		Items: len(j.items), TotalKeys: j.totalKeys, WarmKeys: j.warmKeys,
		Executed: j.executed, FinalizeExecuted: j.finalizeExec,
		Results: j.results, Error: j.errMsg,
	}
	for _, it := range j.items {
		switch it.state {
		case itemPending:
			st.Pending++
		case itemLeased:
			st.Leased++
		case itemAcked:
			st.Acked++
		}
	}
	return st
}

// publishLocked delivers a job's current status to its subscribers
// (non-blocking: a slow SSE consumer drops intermediate events, never
// stalls the queue) and, on a terminal transition, closes them — the
// stream's end-of-job marker.
func publishLocked(j *job) {
	st := statusLocked(j)
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
	if terminal(j.state) {
		for ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// activeLocked counts a token's non-terminal jobs.
func (q *Queue) activeLocked(token string) int {
	n := 0
	for _, j := range q.order {
		if j.token == token && !terminal(j.state) {
			n++
		}
	}
	return n
}

// Submit registers a validated, store-deduped job: items lists the
// shard slices that still own cold keys (empty for a fully-warm grid,
// which goes straight to finalizing). The returned status's State tells
// the caller whether to kick finalize.
func (q *Queue) Submit(token string, spec GridSpec, exps []string, scale exp.Scale, totalKeys, warmKeys int, items []shard.Spec) (JobStatus, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	if q.opts.Quota > 0 && q.activeLocked(token) >= q.opts.Quota {
		q.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w (%d active)", ErrQuota, q.opts.Quota)
	}
	q.jobSeq++
	q.submits++
	j := &job{
		id:        fmt.Sprintf("j%d", q.jobSeq),
		token:     token,
		priority:  spec.Priority,
		spec:      spec,
		exps:      exps,
		scale:     scale,
		state:     StateQueued,
		seq:       q.jobSeq,
		totalKeys: totalKeys,
		warmKeys:  warmKeys,
		subs:      make(map[chan JobStatus]struct{}),
	}
	for _, sp := range items {
		j.items = append(j.items, &workItem{shard: sp})
	}
	if len(j.items) == 0 {
		// Every key is warm: no work to hand out, just assembly. The
		// caller sees StateFinalizing and kicks finalize exactly once.
		j.state = StateFinalizing
		j.finalizeStarted = true
		q.dedupJobs++
	}
	q.jobs[j.id] = j
	q.order = append(q.order, j)
	st := statusLocked(j)
	q.mu.Unlock()

	// The submission record is what makes the id durable — AppendJob
	// syncs before Submit's caller can hand the id to the client.
	_ = q.opts.Journal.AppendJob(journal.JobRecord{
		ID: j.id, Token: token, Priority: spec.Priority, Spec: spec.encode(),
	})
	return st, nil
}

// readyLocked reports whether an item can be granted now.
func readyLocked(j *job, it *workItem, now time.Time) bool {
	return !terminal(j.state) && j.state != StateFinalizing &&
		it.state == itemPending && !now.Before(it.notBefore)
}

// Lease grants the next work item to a worker, or reports none ready.
// Selection is by priority level first; within a level, tokens take
// round-robin turns (one tenant's burst of low-priority grids cannot
// starve another's), and within a token, jobs go FIFO.
func (q *Queue) Lease(worker string, now time.Time) (*LeaseGrant, bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, false
	}
	var (
		grant *LeaseGrant
		lr    journal.LeaseRecord
	)
	for prio := PriorityHigh; prio <= PriorityLow && grant == nil; prio++ {
		// Distinct tokens with a ready item at this priority, sorted for
		// a stable round-robin orbit.
		var tokens []string
		seen := map[string]bool{}
		for _, j := range q.order {
			if j.priority != prio || seen[j.token] {
				continue
			}
			for _, it := range j.items {
				if readyLocked(j, it, now) {
					tokens = append(tokens, j.token)
					seen[j.token] = true
					break
				}
			}
		}
		if len(tokens) == 0 {
			continue
		}
		sort.Strings(tokens)
		start := 0
		if last, ok := q.rr[prio]; ok {
			// The first token strictly after the last one served, wrapping.
			start = sort.SearchStrings(tokens, last)
			if start < len(tokens) && tokens[start] == last {
				start++
			}
			start %= len(tokens)
		}
		tok := tokens[start]
		q.rr[prio] = tok
		for _, j := range q.order { // FIFO within the token
			if j.token != tok || j.priority != prio {
				continue
			}
			for i, it := range j.items {
				if !readyLocked(j, it, now) {
					continue
				}
				it.state = itemLeased
				it.attempts++
				if j.state == StateQueued {
					j.state = StateRunning
				}
				q.leaseSe++
				l := &lease{
					id: fmt.Sprintf("l%d", q.leaseSe), job: j, item: i,
					worker: worker, expires: now.Add(q.opts.LeaseTTL),
				}
				q.leases[l.id] = l
				q.grants++
				grant = &LeaseGrant{
					ID: l.id, Job: j.id, Item: it.shard.String(),
					Exps: j.exps, Warmup: j.scale.Warmup, Measured: j.scale.Measured,
					Workloads: j.scale.Workloads,
					TTLSecs:   int(q.opts.LeaseTTL / time.Second),
				}
				lr = journal.LeaseRecord{Job: j.id, Item: it.shard.String(), Worker: worker}
				publishLocked(j)
				break
			}
			if grant != nil {
				break
			}
		}
	}
	q.mu.Unlock()
	if grant == nil {
		return nil, false
	}
	// Unsynced append: losing it costs an attempt count after a crash,
	// never work.
	_ = q.opts.Journal.AppendLease(lr)
	return grant, true
}

// Heartbeat extends a lease.
func (q *Queue) Heartbeat(leaseID string, now time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[leaseID]
	if !ok {
		return false
	}
	l.expires = now.Add(q.opts.LeaseTTL)
	return true
}

// AckOutcome reports what an ack did.
type AckOutcome struct {
	Job  string
	Item string
	// Ready means this was the job's last outstanding item: the caller
	// must kick finalize exactly once.
	Ready bool
}

// Ack completes a leased item with its validated shard result file.
// Idempotent per item: a duplicate ack (a straggler's late retry after
// re-lease) is absorbed without double-counting.
func (q *Queue) Ack(leaseID, file string, runs int, executed int64) (AckOutcome, error) {
	q.mu.Lock()
	l, ok := q.leases[leaseID]
	if !ok {
		q.mu.Unlock()
		return AckOutcome{}, ErrNoLease
	}
	delete(q.leases, leaseID)
	j := l.job
	it := j.items[l.item]
	out := AckOutcome{Job: j.id, Item: it.shard.String()}
	if terminal(j.state) || it.state == itemAcked {
		q.mu.Unlock()
		return out, nil
	}
	it.state = itemAcked
	it.file = file
	it.runs = runs
	j.executed += executed
	q.acks++
	allAcked := true
	for _, o := range j.items {
		if o.state != itemAcked {
			allAcked = false
			break
		}
	}
	if allAcked {
		j.state = StateFinalizing
		if !j.finalizeStarted {
			j.finalizeStarted = true
			out.Ready = true
		}
	}
	publishLocked(j)
	q.mu.Unlock()

	// Synced append: an acked item is the checkpoint a restarted daemon
	// must not re-execute.
	_ = q.opts.Journal.AppendAck(journal.AckRecord{
		Job: j.id, Item: out.Item, File: file, Runs: runs, Exec: executed,
	})
	return out, nil
}

// requeueLocked returns a leased item to the pending pool with backoff
// pacing, failing the whole job when the item's attempt budget is
// exhausted. Returns the job's terminal record to journal, if any.
func (q *Queue) requeueLocked(l *lease, now time.Time, cause string) (rec *journal.JobRecord) {
	j := l.job
	it := j.items[l.item]
	delete(q.leases, l.id)
	if terminal(j.state) || it.state != itemLeased {
		return nil
	}
	if it.attempts >= q.opts.Attempts {
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("item %s: %s after %d attempts", it.shard, cause, it.attempts)
		q.itemFails++
		publishLocked(j)
		return &journal.JobRecord{ID: j.id, Status: StateFailed, Msg: j.errMsg}
	}
	it.state = itemPending
	it.notBefore = now.Add(q.opts.Requeue.Delay(j.id+"/"+it.shard.String(), it.attempts))
	publishLocked(j)
	return nil
}

// Fail releases a lease a worker could not complete; the item requeues
// (or fails its job past the attempt budget).
func (q *Queue) Fail(leaseID, msg string, now time.Time) error {
	q.mu.Lock()
	l, ok := q.leases[leaseID]
	if !ok {
		q.mu.Unlock()
		return ErrNoLease
	}
	rec := q.requeueLocked(l, now, "worker failure: "+msg)
	q.mu.Unlock()
	if rec != nil {
		_ = q.opts.Journal.AppendJob(*rec)
	}
	return nil
}

// Sweep requeues every expired lease; the server's ticker calls it.
// It reports the items it requeued, for the daemon log.
func (q *Queue) Sweep(now time.Time) []string {
	q.mu.Lock()
	var expired []*lease
	for _, l := range q.leases {
		if now.After(l.expires) {
			expired = append(expired, l)
		}
	}
	var requeued []string
	var recs []journal.JobRecord
	for _, l := range expired {
		q.expiries++
		requeued = append(requeued, l.job.id+"/"+l.job.items[l.item].shard.String())
		if rec := q.requeueLocked(l, now, "lease expired"); rec != nil {
			recs = append(recs, *rec)
		}
	}
	q.mu.Unlock()
	sort.Strings(requeued)
	for _, rec := range recs {
		_ = q.opts.Journal.AppendJob(rec)
	}
	return requeued
}

// FinalizeDone records a finalize outcome as the job's terminal state.
func (q *Queue) FinalizeDone(id string, executed int64, results []string, ferr error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || terminal(j.state) {
		q.mu.Unlock()
		return
	}
	j.finalizeExec = executed
	if ferr != nil {
		j.state = StateFailed
		j.errMsg = "finalize: " + ferr.Error()
	} else {
		j.state = StateDone
		j.results = results
	}
	rec := journal.JobRecord{ID: j.id, Status: j.state, Runs: int(j.executed + executed), Msg: j.errMsg}
	publishLocked(j)
	q.mu.Unlock()
	_ = q.opts.Journal.AppendJob(rec)
}

// Cancel terminates a job; its outstanding leases are voided (late acks
// are absorbed as no-ops). Only the submitting token may cancel.
func (q *Queue) Cancel(id, token string) (JobStatus, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.token != token {
		q.mu.Unlock()
		return JobStatus{}, false
	}
	if terminal(j.state) {
		st := statusLocked(j)
		q.mu.Unlock()
		return st, true
	}
	j.state = StateCanceled
	for lid, l := range q.leases {
		if l.job == j {
			delete(q.leases, lid)
		}
	}
	publishLocked(j)
	st := statusLocked(j)
	q.mu.Unlock()
	_ = q.opts.Journal.AppendJob(journal.JobRecord{ID: id, Status: StateCanceled})
	return st, true
}

// Status returns a job visible to the token.
func (q *Queue) Status(id, token string) (JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.token != token {
		return JobStatus{}, false
	}
	return statusLocked(j), true
}

// List returns the token's jobs in submission order.
func (q *Queue) List(token string) []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []JobStatus
	for _, j := range q.order {
		if j.token == token {
			out = append(out, statusLocked(j))
		}
	}
	return out
}

// Subscribe attaches an event stream to a job: the current status
// arrives first, every transition after, and the channel closes on the
// terminal one. The cancel func detaches an abandoned stream.
func (q *Queue) Subscribe(id, token string) (<-chan JobStatus, func(), bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.token != token {
		return nil, nil, false
	}
	ch := make(chan JobStatus, 16)
	ch <- statusLocked(j)
	if terminal(j.state) {
		close(ch)
		return ch, func() {}, true
	}
	j.subs[ch] = struct{}{}
	cancel := func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		delete(j.subs, ch)
	}
	return ch, cancel, true
}

// Item returns an acked item's result file for finalize.
func (q *Queue) ackedFiles(id string) []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil
	}
	var files []string
	for _, it := range j.items {
		if it.state == itemAcked && it.file != "" {
			files = append(files, it.file)
		}
	}
	return files
}

// leaseTarget names the job and item a live lease covers.
func (q *Queue) leaseTarget(leaseID string) (jobID, item string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, found := q.leases[leaseID]
	if !found {
		return "", "", false
	}
	return l.job.id, l.job.items[l.item].shard.String(), true
}

// allFinalizing lists jobs in the finalizing state — what a restarted
// server must assemble on start.
func (q *Queue) allFinalizing() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var ids []string
	for _, j := range q.order {
		if j.state == StateFinalizing {
			ids = append(ids, j.id)
		}
	}
	return ids
}

// jobForFinalize returns what finalize needs without exposing the job.
func (q *Queue) jobForFinalize(id string) (exps []string, scale exp.Scale, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, found := q.jobs[id]
	if !found {
		return nil, exp.Scale{}, false
	}
	return j.exps, j.scale, true
}

// Depth snapshots the queue gauges for /metrics.
type Depth struct {
	Pending, Leased, ActiveJobs                           int
	Submits, DedupJobs, Grants, Acks, Expiries, ItemFails int64
}

// Stats snapshots queue depth and traffic.
func (q *Queue) Stats() Depth {
	q.mu.Lock()
	defer q.mu.Unlock()
	d := Depth{
		Leased:  len(q.leases),
		Submits: q.submits, DedupJobs: q.dedupJobs, Grants: q.grants,
		Acks: q.acks, Expiries: q.expiries, ItemFails: q.itemFails,
	}
	for _, j := range q.order {
		if terminal(j.state) {
			continue
		}
		d.ActiveJobs++
		for _, it := range j.items {
			if it.state == itemPending {
				d.Pending++
			}
		}
	}
	return d
}

// Close drains the queue: no new submissions or grants; outstanding
// state is already journaled.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// RestoreSummary reports what a queue adopted from its journal.
type RestoreSummary struct {
	// Jobs counts adopted jobs (terminal ones included).
	Jobs int
	// Terminal of those were already done/failed/canceled.
	Terminal int
	// ItemsAcked counts completed work items adopted — exactly the work
	// a restart does not redo.
	ItemsAcked int
	// ItemsRequeued counts items that were pending or leased at the
	// crash; leases are voided, the items re-lease from scratch.
	ItemsRequeued int
	// Finalizing lists jobs whose work is complete but whose results
	// were never assembled — the server kicks their finalize on start.
	Finalizing []string
}

// Restore folds replayed journal records into the queue: submissions
// re-expand (the journal fingerprint pins schema and scale table, so a
// spec that validated once validates again), terminal transitions
// retire, acks mark their items complete, and lease grants count toward
// attempt budgets. Live leases are not restored — a restarted daemon
// cannot heartbeat-check workers it never talked to, so unacked items
// simply re-lease.
func (q *Queue) Restore(rec *journal.Recovery, scales map[string]exp.Scale) (RestoreSummary, error) {
	var sum RestoreSummary
	if rec == nil {
		return sum, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, jr := range rec.Jobs {
		if jr.Status != "" { // terminal transition for an earlier id
			if j, ok := q.jobs[jr.ID]; ok && !terminal(j.state) {
				j.state = jr.Status
				j.errMsg = jr.Msg
			}
			continue
		}
		spec, err := decodeSpec(jr.Spec)
		if err != nil {
			return sum, fmt.Errorf("restoring %s: %w", jr.ID, err)
		}
		exps, scale, err := spec.normalize(scales)
		if err != nil {
			return sum, fmt.Errorf("restoring %s: %w", jr.ID, err)
		}
		total, err := exp.GridKeys(exps, scale)
		if err != nil {
			return sum, fmt.Errorf("restoring %s: %w", jr.ID, err)
		}
		j := &job{
			id: jr.ID, token: jr.Token, priority: jr.Priority,
			spec: spec, exps: exps, scale: scale,
			state: StateQueued, totalKeys: len(total),
			subs: make(map[chan JobStatus]struct{}),
		}
		// A numeric id beyond the counter advances it; ids never reuse.
		var n int
		if _, err := fmt.Sscanf(jr.ID, "j%d", &n); err == nil && n > q.jobSeq {
			q.jobSeq = n
		}
		j.seq = n
		for i := 0; i < spec.Shards; i++ {
			j.items = append(j.items, &workItem{shard: shard.Spec{Index: i, Count: spec.Shards}})
		}
		q.jobs[j.id] = j
		q.order = append(q.order, j)
	}
	itemOf := func(jobID, item string) (*job, *workItem) {
		j, ok := q.jobs[jobID]
		if !ok {
			return nil, nil
		}
		for _, it := range j.items {
			if it.shard.String() == item {
				return j, it
			}
		}
		return nil, nil
	}
	for _, lr := range rec.Leases {
		if _, it := itemOf(lr.Job, lr.Item); it != nil {
			it.attempts++
		}
	}
	for _, ar := range rec.Acks {
		j, it := itemOf(ar.Job, ar.Item)
		if it == nil || it.state == itemAcked {
			continue
		}
		it.state = itemAcked
		it.file = ar.File
		it.runs = ar.Runs
		j.executed += ar.Exec
	}
	for _, j := range q.order {
		sum.Jobs++
		if terminal(j.state) {
			sum.Terminal++
			continue
		}
		acked := 0
		for _, it := range j.items {
			if it.state == itemAcked {
				acked++
			} else {
				sum.ItemsRequeued++
			}
		}
		sum.ItemsAcked += acked
		switch {
		case acked == len(j.items):
			// Work complete, results never assembled: finalize on start.
			j.state = StateFinalizing
			j.finalizeStarted = true
			sum.Finalizing = append(sum.Finalizing, j.id)
		case acked > 0:
			j.state = StateRunning
		}
	}
	return sum, nil
}

// String renders the restore summary as the daemon's one-line resume log.
func (s RestoreSummary) String() string {
	return fmt.Sprintf("queue resumed: %d job(s) (%d terminal), %d item(s) acked adopted, %d item(s) requeued, %d finalize(s) pending",
		s.Jobs, s.Terminal, s.ItemsAcked, s.ItemsRequeued, len(s.Finalizing))
}
