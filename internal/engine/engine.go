// Package engine is the concurrent QSS analysis engine: a long-running,
// goroutine-safe front end over internal/core that shards a stream of nets
// across a bounded worker pool and memoises the expensive intermediates —
// minimal T-semiflows, P-invariant bounds, canonical T-reductions and
// complete schedules — in a content-addressed cache keyed by the canonical
// structural hash of each net (petri.CanonicalForm).
//
// Determinism contract: every cached payload is stored in canonical index
// space and every report field is derived from the canonical payload
// mapped back into the requesting net's index space, for cold and warm
// paths alike. A cache hit therefore returns byte-identical results to a
// cold run, and results are independent of the worker count. See
// docs/ENGINE.md.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/engine/stats"
	"fcpn/internal/invariant"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// ErrEngineClosed is returned by Analyze/AnalyzeBatch/Synthesize after
// Close: the worker pool is gone, so new jobs cannot run. (The cache
// stays readable through results already held by the caller.)
var ErrEngineClosed = errors.New("engine: closed")

// ErrJobTimeout is the typed failure of a job that exceeded
// Config.JobTimeout. It is installed as the deadline's cancellation
// cause, so it survives errors.Is through every layer the context
// threads into (core's sweep, cycle search, reduction enumeration).
var ErrJobTimeout = errors.New("engine: job deadline exceeded")

// ErrJobPanicked is the typed failure of a job whose analysis panicked.
// The panic is recovered on the worker, the offending canonical hash is
// quarantined, and the pool keeps running.
var ErrJobPanicked = errors.New("engine: job panicked")

// ErrQuarantined is returned for jobs whose canonical hash was
// quarantined by an earlier panic (or seeded via Quarantine, e.g. from a
// resumed qssd journal): the job is refused without running.
var ErrQuarantined = errors.New("engine: net is quarantined")

// Config tunes the engine. The zero value is usable: GOMAXPROCS workers,
// a 4096-entry cache, default solver options, a 2×workers submission
// window, no deadline, no fault injection.
type Config struct {
	// Workers is the analysis worker-pool size (≤ 0 → GOMAXPROCS). The
	// per-net schedulability sweep inherits it through Core.Workers
	// unless that is set explicitly.
	Workers int
	// CacheCapacity bounds the content-addressed cache (entries across
	// all layers; ≤ 0 → 4096). Eviction is LRU.
	CacheCapacity int
	// Core is the solver configuration applied to every job. The engine
	// always sweeps the distinct reductions it reports, so
	// Core.KeepDuplicateReductions only turns off parent-semiflow sharing.
	Core core.Options
	// Timing, when enabled (Timing.MK set), appends a weakly-hard
	// timing-safety verdict — and optionally overload margins — to every
	// schedulable net's report (NetReport.Timing). Cached per canonical
	// hash and option set, like every other analysis layer.
	Timing TimingOptions

	// SubmitWindow bounds how many AnalyzeEach/AnalyzeBatch jobs may be
	// submitted but not yet finished (≤ 0 → 2×Workers). The window is
	// the engine's backpressure: batch submission blocks once the window
	// is full, so queue memory for a million-net corpus stays O(window)
	// instead of O(corpus) and the queue_depth gauge is bounded by it.
	SubmitWindow int
	// JobTimeout is the per-job deadline (0 = none). A job past its
	// deadline is cancelled at the pipeline's next checkpoint and
	// returns its partial report with a typed ErrJobTimeout.
	JobTimeout time.Duration
	// RetryBackoff is the wait before the single retry of a transiently
	// failed job (one wrapping core.ErrBudgetExceeded; ≤ 0 → 1ms).
	RetryBackoff time.Duration
	// FaultHook, when non-nil, runs at the start of every job attempt
	// with the job's canonical hash and attempt number (0 = first). It
	// may panic, sleep, or return an error, which the engine treats
	// exactly like an analysis failure — the injection point for
	// fault.EngineInjector in the robustness tests. Never set in
	// production.
	FaultHook func(ctx context.Context, hash string, attempt int) error
}

// Engine is the long-running analysis service. Create with New, share
// freely across goroutines, and Close when done (Close waits for
// in-flight jobs). Methods must not be called from inside another job of
// the same engine — jobs occupy workers, so nesting can deadlock a full
// pool.
type Engine struct {
	cfg      Config
	workers  int
	cache    *cache
	counters stats.Counters
	tracer   *trace.Tracer // lifetime aggregate of every job's phases
	start    time.Time

	jobs      chan job
	wg        sync.WaitGroup
	closeOnce sync.Once

	// mu guards closed against concurrent submits: a send on the closed
	// jobs channel would panic, so Close flips the flag under the write
	// lock and every submit checks it under the read lock.
	mu     sync.RWMutex
	closed bool

	// quarantine maps canonical hashes poisoned by a recovered panic (or
	// seeded via Quarantine) to the reason; jobs for those hashes are
	// refused with ErrQuarantined.
	quarantine sync.Map // string -> string

	// onDoneMu serialises AnalyzeEach completion callbacks so callers
	// (e.g. qssd's journal writer) need no locking of their own.
	onDoneMu sync.Mutex
}

// JobStatus classifies how a job ended. It is the string the batch
// reports aggregate over.
type JobStatus string

const (
	// StatusOK: the analysis ran to completion (the report may still
	// carry a schedulability diagnosis — that is an answer, not a
	// failure).
	StatusOK JobStatus = "ok"
	// StatusTimeout: the job exceeded Config.JobTimeout; the report is
	// partial and Err wraps ErrJobTimeout.
	StatusTimeout JobStatus = "timeout"
	// StatusPanicked: the analysis panicked; the worker recovered, the
	// hash is quarantined, Err wraps ErrJobPanicked.
	StatusPanicked JobStatus = "panicked"
	// StatusQuarantined: the job was refused because its hash was
	// already quarantined; Err wraps ErrQuarantined.
	StatusQuarantined JobStatus = "quarantined"
	// StatusError: a residual job-level failure that is none of the
	// above (e.g. a persistent injected fault).
	StatusError JobStatus = "error"
)

// Result pairs a report with its wall-clock analysis time, phase trace
// and failure classification. Elapsed and the trace durations are the
// only non-deterministic outputs, which is why they live outside
// NetReport (phase *counts* are deterministic and worker-count
// independent).
type Result struct {
	Report  *NetReport
	Elapsed time.Duration
	// Trace is the job's per-phase breakdown; its non-detail phases sum
	// to Elapsed modulo scheduling glue. Failure modes appear as
	// "engine/timeout", "engine/panic" and "engine/retry" detail phases
	// plus matching counters.
	Trace *trace.Report
	// Status classifies the job's ending; Err is the typed job-level
	// error for every status but StatusOK (errors.Is-testable against
	// ErrJobTimeout / ErrJobPanicked / ErrQuarantined). A timed-out or
	// panicked job still carries the partial Report built before the
	// failure.
	Status JobStatus
	Err    error
}

// New starts an engine with its worker pool.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cfg:     cfg,
		workers: workers,
		tracer:  trace.New(),
		start:   time.Now(),
		jobs:    make(chan job),
	}
	e.cache = newCache(cfg.CacheCapacity, &e.counters, e.tracer)
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// job is one unit of pool work. done signals its completion to the
// submitter; the worker calls it only after releasing its gauges, so a
// caller woken by done never sees the job still counted busy.
type job struct {
	fn, done func()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.jobs {
		e.counters.QueueDepth.Add(-1)
		e.counters.BusyWorkers.Add(1)
		t0 := time.Now()
		j.fn()
		e.counters.BusyNanos.Add(time.Since(t0).Nanoseconds())
		e.counters.BusyWorkers.Add(-1)
		j.done()
	}
}

// Close shuts the pool down and waits for in-flight jobs. The cache stays
// readable; submitting new jobs after Close returns ErrEngineClosed.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		close(e.jobs)
		e.mu.Unlock()
	})
	e.wg.Wait()
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// Stats snapshots the engine counters, including the lifetime per-phase
// trace aggregate across every job run so far.
func (e *Engine) Stats() stats.Snapshot {
	s := e.counters.Snapshot(e.workers, time.Since(e.start).Nanoseconds())
	s.Trace = e.tracer.Report()
	return s
}

// coreOpts is the per-job solver configuration: the engine's cache, the
// job's tracer, the job's cancellation context and — unless the caller
// pinned one — the engine's worker count for the inner schedulability
// sweep.
func (e *Engine) coreOpts(ctx context.Context, tr *trace.Tracer) core.Options {
	opt := e.cfg.Core
	opt.Semiflows = semiflowCache{e.cache}
	opt.Trace = tr
	opt.Ctx = ctx
	if opt.Workers == 0 {
		opt.Workers = e.workers
	}
	return opt
}

// SubmitWindow is the effective backpressure window: Config.SubmitWindow,
// or 2×Workers when unset. AnalyzeEach bounds its in-flight jobs by it;
// the HTTP service sizes its admission semaphore from it so a full
// window turns into a 429 instead of an unbounded queue.
func (e *Engine) SubmitWindow() int {
	if e.cfg.SubmitWindow > 0 {
		return e.cfg.SubmitWindow
	}
	return 2 * e.workers
}

// retryBackoff is the wait before a transient-failure retry.
func (e *Engine) retryBackoff() time.Duration {
	if e.cfg.RetryBackoff > 0 {
		return e.cfg.RetryBackoff
	}
	return time.Millisecond
}

// jobContext returns the per-attempt context: deadline-bound with
// ErrJobTimeout as the cancellation cause when Config.JobTimeout is set.
func (e *Engine) jobContext() (context.Context, context.CancelFunc) {
	if e.cfg.JobTimeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeoutCause(context.Background(), e.cfg.JobTimeout, ErrJobTimeout)
}

// Quarantine marks a canonical hash as poisoned: subsequent jobs for it
// are refused with ErrQuarantined instead of running. The engine calls
// this itself after a recovered panic; qssd -resume seeds it from
// journalled panics.
func (e *Engine) Quarantine(hash, reason string) {
	e.quarantine.LoadOrStore(hash, reason)
}

// QuarantineReason reports whether hash is quarantined and, if so, why.
// The HTTP service fronts its admission check with this so a poisoned
// net is refused with its recorded reason instead of re-running.
func (e *Engine) QuarantineReason(hash string) (string, bool) {
	reason, ok := e.quarantine.Load(hash)
	if !ok {
		return "", false
	}
	return reason.(string), true
}

// QuarantinedHashes lists the quarantined canonical hashes, sorted.
func (e *Engine) QuarantinedHashes() []string {
	var out []string
	e.quarantine.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// submit schedules fn on the pool, or reports ErrEngineClosed. The
// worker calls done once fn has returned and the worker's gauges are
// released.
func (e *Engine) submit(fn, done func()) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.counters.ObserveQueueDepth(e.counters.QueueDepth.Add(1))
	e.jobs <- job{fn: fn, done: done}
	return nil
}

// run executes fn on the pool and waits for it.
func (e *Engine) run(fn func()) error {
	done := make(chan struct{})
	if err := e.submit(fn, func() { close(done) }); err != nil {
		return err
	}
	<-done
	return nil
}

// Analyze runs the full structural + behavioural analysis of one net on
// the pool and returns its deterministic report. After Close it returns
// ErrEngineClosed. Job-level failures (deadline, panic, quarantine)
// return the typed error alongside the partial report built before the
// failure.
func (e *Engine) Analyze(n *petri.Net) (*NetReport, error) {
	var res Result
	if err := e.run(func() { res = e.analyzeJob(n) }); err != nil {
		return nil, err
	}
	return res.Report, res.Err
}

// AnalyzeBatch analyses the nets concurrently across the pool and returns
// the results in input order. Submission is bounded by the engine's
// backpressure window (Config.SubmitWindow). After Close it returns
// ErrEngineClosed (jobs already submitted still finish). Per-job
// failures — timeouts, panics, quarantine refusals — do NOT fail the
// batch: they come back as typed Result.Err/Status entries while the
// healthy nets' reports stay byte-identical to a fault-free run.
func (e *Engine) AnalyzeBatch(nets []*petri.Net) ([]Result, error) {
	out := make([]Result, len(nets))
	err := e.AnalyzeEach(nets, func(i int, r Result) { out[i] = r })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AnalyzeEach is the streaming form of AnalyzeBatch: onDone fires once
// per net as its job finishes (serialised — no caller locking needed —
// but in completion order, not input order; i is the net's input index).
// At most the submission window's worth of jobs is in flight, so corpus
// memory beyond the results the caller retains is O(window). qssd's
// crash-safe journal hangs off this callback.
func (e *Engine) AnalyzeEach(nets []*petri.Net, onDone func(i int, r Result)) error {
	window := e.SubmitWindow()
	slots := make(chan struct{}, window)
	var wg sync.WaitGroup
	for i, n := range nets {
		// Backpressure: block until an in-flight job frees a slot.
		slots <- struct{}{}
		i, n := i, n
		wg.Add(1)
		if err := e.submit(func() {
			r := e.analyzeJob(n)
			// Free the slot before the callback: journal writes and other
			// caller work must not throttle the pool.
			<-slots
			e.onDoneMu.Lock()
			defer e.onDoneMu.Unlock()
			onDone(i, r)
		}, wg.Done); err != nil {
			<-slots
			wg.Done()
			wg.Wait()
			return err
		}
	}
	wg.Wait()
	return nil
}

// Synthesize runs the complete pipeline — schedule, task partition, code
// generation — through the cache and returns the bundle. Schedules come
// from the content-addressed schedule layer; the generated program is
// rebuilt from them (code generation is linear and name-dependent, so its
// output is not content-addressed).
func (e *Engine) Synthesize(n *petri.Net) (*Synthesis, error) {
	var syn *Synthesis
	var err error
	if rerr := e.run(func() { syn, err = e.synthesize(n) }); rerr != nil {
		return nil, rerr
	}
	return syn, err
}

func (e *Engine) synthesize(n *petri.Net) (syn *Synthesis, err error) {
	e.counters.Jobs.Add(1)
	tr := trace.New()
	defer e.tracer.Merge(tr)
	// Synthesis gets the same worker-level guard rails as analysis: a
	// recovered panic quarantines the hash, a deadline cancels the solve.
	var cf *petri.CanonicalForm
	defer func() {
		if r := recover(); r != nil {
			e.counters.Panics.Add(1)
			tr.Add("engine/panic", 1)
			err = fmt.Errorf("%w: %v", ErrJobPanicked, r)
			if cf != nil {
				e.Quarantine(cf.Hash, err.Error())
			}
			syn = nil
		}
	}()
	ctx, cancel := e.jobContext()
	defer cancel()
	sp := tr.Start("petri/canonical")
	cf = n.CanonicalForm()
	sp.End()
	if reason, ok := e.quarantine.Load(cf.Hash); ok {
		e.counters.QuarantineSkips.Add(1)
		return nil, fmt.Errorf("%w: %s (%s)", ErrQuarantined, cf.Hash, reason.(string))
	}
	sp = tr.Start("core/solve")
	sched, err := e.schedule(ctx, n, cf, nil, tr)
	sp.End()
	if err != nil {
		if cerr := ctxCause(ctx); cerr != nil {
			e.counters.Timeouts.Add(1)
			return nil, cerr
		}
		return nil, err
	}
	sp = tr.Start("core/tasks")
	tp, err := core.PartitionTasks(n, e.coreOpts(ctx, tr))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("codegen/generate")
	prog, err := codegen.Generate(sched, tp)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Synthesis{Schedule: sched, Partition: tp, Program: prog}, nil
}

// ---- cache layers ----------------------------------------------------

// cachedSchedule is the canonical-space payload of the schedule layer:
// cycles sorted lexicographically by canonical firing sequence, each with
// its choice resolution as (canonical cluster-representative place,
// canonical chosen transition) pairs.
type cachedSchedule struct {
	cycles []cachedCycle
}

type cachedCycle struct {
	seq     []int
	choices [][2]int
}

// schedule returns the net's valid schedule through the cache: on a miss
// the solver sweeps the net's distinct T-reductions (parallel sweep,
// memoised semiflows) and the result is canonicalised; hit or miss, the
// returned Schedule is rebuilt from the canonical payload, which is what
// makes warm results byte-identical to cold ones. Solve failures are
// returned, never cached.
//
// The miss path never solves the caller's net directly: the solver
// explores firings in index order and may return any of several valid
// schedules, so isomorphic nets solved as-declared would cache payloads
// that depend on which arrived first. It sweeps the canonical twin
// (petri.CanonicalNet), identical for every member of the class.
//
// There is one miss path: fresh carries the twin-space reductions that
// reductions() built this job; when nil (the reductions layer hit, or
// this job waited on another's enumeration) twinReductions rebuilds the
// same set, so the sweep caches the same schedule either way.
func (e *Engine) schedule(ctx context.Context, n *petri.Net, cf *petri.CanonicalForm, fresh *twinReds, tr *trace.Tracer) (*core.Schedule, error) {
	v, err := e.cache.getOrCompute(schedKey(cf.Hash), func() (any, error) {
		tw := fresh
		if tw == nil {
			var err error
			if _, tw, err = twinReductions(ctx, n, cf, e.cfg.Core.MaxAllocations); err != nil {
				return nil, err
			}
		}
		s, err := core.SolveReductions(tw.net, tw.reds, e.coreOpts(ctx, tr))
		if err != nil {
			return nil, err
		}
		enc := encodeSchedule(toCachedSchedule(tw.net.CanonicalForm(), s))
		tr.Add("cache/sched/bytes", int64(len(enc)))
		return enc, nil
	})
	if err != nil {
		return nil, err
	}
	// Hit and miss alike rebuild from the decoded wire payload, so a cold
	// result can never differ from a warm one by construction.
	cs, err := decodeSchedule(v.([]byte))
	if err != nil {
		return nil, err
	}
	return rebuildSchedule(n, cf, cs)
}

// twinReds carries a distinct-reduction set in twin space together with
// the canonical twin net it belongs to.
type twinReds struct {
	net  *petri.Net
	reds []*core.Reduction
}

// twinReductions enumerates n's distinct T-reductions in n's own index
// order and maps them onto the canonical twin. It returns the local set
// too, for the reductions layer's report rows. Both cache layers that
// need reductions build them here, so a schedule computed after a
// reductions hit sweeps exactly the set a cold job sweeps.
func twinReductions(ctx context.Context, n *petri.Net, cf *petri.CanonicalForm, max int) ([]*core.Reduction, *twinReds, error) {
	reds, err := core.EnumerateDistinctReductionsCtx(ctx, n, max)
	if err != nil {
		return nil, nil, err
	}
	twin := n.CanonicalNet()
	return reds, &twinReds{net: twin, reds: mapReductionsToTwin(cf, twin, reds)}, nil
}

func toCachedSchedule(cf *petri.CanonicalForm, s *core.Schedule) *cachedSchedule {
	cs := &cachedSchedule{cycles: make([]cachedCycle, len(s.Cycles))}
	for i, cyc := range s.Cycles {
		alloc := cyc.Reduction.Allocation
		cc := cachedCycle{seq: make([]int, len(cyc.Sequence))}
		for j, t := range cyc.Sequence {
			cc.seq[j] = cf.TransPos[t]
		}
		if len(alloc.Clusters) > 0 {
			cc.choices = make([][2]int, 0, len(alloc.Clusters))
		}
		for k, cluster := range alloc.Clusters {
			rep := cf.PlacePos[cluster.Places[0]]
			for _, p := range cluster.Places[1:] {
				if pos := cf.PlacePos[p]; pos < rep {
					rep = pos
				}
			}
			cc.choices = append(cc.choices, [2]int{rep, cf.TransPos[alloc.Chosen[k]]})
		}
		sort.Slice(cc.choices, func(a, b int) bool { return cc.choices[a][0] < cc.choices[b][0] })
		cs.cycles[i] = cc
	}
	sort.Slice(cs.cycles, func(a, b int) bool { return lessIntSlice(cs.cycles[a].seq, cs.cycles[b].seq) })
	return cs
}

// rebuildSchedule maps a canonical-space payload into n's index space.
// The per-cycle Reduce below recomputes what the solver already derived
// on the twin, but in *local* space; Reduce is deterministic in the
// allocation, so every member of the isomorphism class rebuilds the same
// schedule from the same payload.
func rebuildSchedule(n *petri.Net, cf *petri.CanonicalForm, cs *cachedSchedule) (*core.Schedule, error) {
	clusters := n.FreeChoiceSets()
	clusterOf := map[petri.Place]int{}
	for i, c := range clusters {
		for _, p := range c.Places {
			clusterOf[p] = i
		}
	}
	count, saturated := core.CountAllocationsSat(n)
	sched := &core.Schedule{Net: n, AllocationCount: count, AllocationCountSaturated: saturated}
	rd := core.NewReducer(n)
	for _, cc := range cs.cycles {
		seq := make([]petri.Transition, len(cc.seq))
		for j, pos := range cc.seq {
			seq[j] = cf.TransAt[pos]
		}
		chosen := make([]petri.Transition, len(clusters))
		for i, c := range clusters {
			chosen[i] = c.Transitions[0]
		}
		for _, pair := range cc.choices {
			p, t := cf.PlaceAt[pair[0]], cf.TransAt[pair[1]]
			ci, ok := clusterOf[p]
			if !ok {
				return nil, fmt.Errorf("engine: cached choice place %q is not a choice of net %q",
					n.PlaceName(p), n.Name())
			}
			chosen[ci] = t
		}
		red := rd.Reduce(&core.Allocation{Clusters: clusters, Chosen: chosen})
		sched.Cycles = append(sched.Cycles, core.Cycle{
			Sequence:  seq,
			Counts:    n.FiringCount(seq),
			Reduction: red,
		})
	}
	return sched, nil
}

// mapReductionsToTwin re-derives each distinct reduction on the
// canonical twin: the allocation translates through the canonical
// permutation and Reduce — deterministic in (net, allocation) — rebuilds
// the subnet in twin space. Sorting by twin transition-set key then makes
// the solver's input depend only on the isomorphism class.
//
// Enumerating directly on the twin would also work, but the lazy
// branching search's cost is sensitive to cluster index order, and
// mapping costs exactly one Reduce per distinct reduction. On the
// perfbench corpora (seeds 1-3), enumerating on the twin takes 2.3-3.2x
// the Reduce calls and 2.4-3.9x the allocation of local enumeration plus
// mapping on sweep-choice, and 0.93-1.13x the calls on batch-pipeline.
func mapReductionsToTwin(cf *petri.CanonicalForm, twin *petri.Net, reds []*core.Reduction) []*core.Reduction {
	clusters := twin.FreeChoiceSets()
	clusterOf := map[petri.Place]int{}
	for i, c := range clusters {
		for _, p := range c.Places {
			clusterOf[p] = i
		}
	}
	out := make([]*core.Reduction, len(reds))
	rd := core.NewReducer(twin)
	for i, r := range reds {
		chosen := make([]petri.Transition, len(clusters))
		for k, c := range clusters {
			chosen[k] = c.Transitions[0]
		}
		la := r.Allocation
		for k, cluster := range la.Clusters {
			ci := clusterOf[petri.Place(cf.PlacePos[cluster.Places[0]])]
			chosen[ci] = petri.Transition(cf.TransPos[la.Chosen[k]])
		}
		out[i] = rd.Reduce(&core.Allocation{Clusters: clusters, Chosen: chosen})
	}
	sort.Slice(out, func(a, b int) bool {
		return out[a].TransitionSetKey() < out[b].TransitionSetKey()
	})
	return out
}

// reductions returns, per distinct T-reduction, the canonically sorted
// kept-transition sets, mapped to the net's transitions. The second
// return is the reduction set in twin space when THIS call computed it
// (a cache miss this goroutine won): analyze hands it to schedule() so a
// cold job enumerates reductions exactly once. On hits — and for
// singleflight waiters — it is nil. The set comes from twinReductions,
// the helper schedule() also uses when it has no fresh set.
func (e *Engine) reductions(ctx context.Context, n *petri.Net, cf *petri.CanonicalForm) ([][]petri.Transition, *twinReds, error) {
	var fresh *twinReds
	v, err := e.cache.getOrCompute("reds:"+cf.Hash, func() (any, error) {
		reds, tw, err := twinReductions(ctx, n, cf, e.cfg.Core.MaxAllocations)
		if err != nil {
			return nil, err
		}
		fresh = tw
		rows := make([][]int, len(reds))
		for i, r := range reds {
			kept := r.KeptTransitions()
			row := make([]int, len(kept))
			for j, t := range kept {
				row[j] = cf.TransPos[t]
			}
			sort.Ints(row)
			rows[i] = row
		}
		sort.Slice(rows, func(a, b int) bool { return lessIntSlice(rows[a], rows[b]) })
		return rows, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows := v.([][]int)
	out := make([][]petri.Transition, len(rows))
	for i, row := range rows {
		ts := make([]petri.Transition, len(row))
		for j, pos := range row {
			ts[j] = cf.TransAt[pos]
		}
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		out[i] = ts
	}
	return out, fresh, nil
}

// structuralBounds returns the P-invariant place bounds through the
// bounds layer (canonical place order).
func (e *Engine) structuralBounds(n *petri.Net, cf *petri.CanonicalForm, tr *trace.Tracer) ([]int, error) {
	v, err := e.cache.getOrCompute("bounds:"+cf.Hash, func() (any, error) {
		pis, err := invariant.PInvariantsCached(n, invariant.Options{MaxRows: e.cfg.Core.MaxRows, Trace: tr}, semiflowCache{e.cache})
		if err != nil {
			return nil, err
		}
		local := invariant.StructuralBounds(n, pis)
		canon := make([]int, len(local))
		for p, b := range local {
			canon[cf.PlacePos[p]] = b
		}
		return canon, nil
	})
	if err != nil {
		return nil, err
	}
	canon := v.([]int)
	local := make([]int, len(canon))
	for pos, b := range canon {
		local[cf.PlaceAt[pos]] = b
	}
	return local, nil
}

// ---- analysis --------------------------------------------------------

// ctxCause returns nil while ctx is live and an error wrapping
// context.Cause once it is done (for a deadline job, that cause is the
// typed ErrJobTimeout).
func ctxCause(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("engine: job cancelled: %w", context.Cause(ctx))
	default:
		return nil
	}
}

// minimalReport identifies a net whose analysis never ran (or died
// early): enough for a journal entry and a quarantine record.
func minimalReport(n *petri.Net, cf *petri.CanonicalForm) *NetReport {
	return &NetReport{
		Name:        n.Name(),
		Hash:        cf.Hash,
		Places:      n.NumPlaces(),
		Transitions: n.NumTransitions(),
		Arcs:        len(n.Arcs()),
	}
}

// analyzeJob runs one fully guarded analysis job on a worker goroutine:
// canonicalise, refuse quarantined hashes, then attempt the analysis
// under the per-job deadline with panic recovery and the retry-once
// policy. It never panics and never blocks past the deadline by more
// than one pipeline checkpoint.
func (e *Engine) analyzeJob(n *petri.Net) Result {
	e.counters.Jobs.Add(1)
	t0 := time.Now()
	tr := trace.New()
	res := e.analyzeGuarded(n, tr)
	res.Elapsed = time.Since(t0)
	e.tracer.Merge(tr)
	res.Trace = tr.Report()
	return res
}

func (e *Engine) analyzeGuarded(n *petri.Net, tr *trace.Tracer) Result {
	cf, err := e.canonical(n, tr)
	if err != nil {
		// Canonicalisation itself panicked: there is no hash to
		// quarantine, but the job still returns typed instead of killing
		// the worker.
		e.counters.Panics.Add(1)
		tr.Add("engine/panic", 1)
		return Result{Report: &NetReport{Name: n.Name()}, Status: StatusPanicked, Err: err}
	}
	if reason, ok := e.quarantine.Load(cf.Hash); ok {
		e.counters.QuarantineSkips.Add(1)
		tr.Add("engine/quarantined", 1)
		return Result{
			Report: minimalReport(n, cf),
			Status: StatusQuarantined,
			Err:    fmt.Errorf("%w: %s (%s)", ErrQuarantined, cf.Hash, reason.(string)),
		}
	}

	const attempts = 2
	var rep *NetReport
	var jobErr error
	for attempt := 0; attempt < attempts; attempt++ {
		final := attempt == attempts-1
		ta := time.Now()
		ctx, cancel := e.jobContext()
		rep, jobErr = e.attempt(ctx, n, cf, tr, final, attempt)
		expired := ctx.Err() != nil
		cancel()
		if rep == nil {
			rep = minimalReport(n, cf)
		}
		switch {
		case errors.Is(jobErr, ErrJobPanicked):
			// Quarantine the hash so one poisoned net cannot keep taking
			// workers down; the panic itself was recovered in attempt().
			e.Quarantine(cf.Hash, jobErr.Error())
			e.counters.Panics.Add(1)
			tr.Observe("engine/panic", time.Since(ta), true)
			return Result{Report: rep, Status: StatusPanicked, Err: jobErr}
		case jobErr != nil && expired:
			// The job's own deadline fired: partial result, typed error.
			e.counters.Timeouts.Add(1)
			tr.Observe("engine/timeout", time.Since(ta), true)
			return Result{Report: rep, Status: StatusTimeout, Err: jobErr}
		case jobErr != nil && !final &&
			(errors.Is(jobErr, core.ErrBudgetExceeded) || errors.Is(jobErr, ErrJobTimeout)):
			// Transient: a budget trip (possibly injected) or a
			// singleflight leader's deadline observed from a waiter whose
			// own deadline is intact. Retry once with backoff.
			e.counters.Retries.Add(1)
			backoff := e.retryBackoff()
			tr.Observe("engine/retry", backoff, true)
			time.Sleep(backoff)
			continue
		case jobErr != nil:
			return Result{Report: rep, Status: StatusError, Err: jobErr}
		default:
			return Result{Report: rep, Status: StatusOK}
		}
	}
	return Result{Report: rep, Status: StatusError, Err: jobErr}
}

// canonical computes the net's canonical form under the job's
// "petri/canonical" span, converting a canonicalisation panic into a
// typed error.
func (e *Engine) canonical(n *petri.Net, tr *trace.Tracer) (cf *petri.CanonicalForm, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: canonicalisation: %v", ErrJobPanicked, r)
		}
	}()
	sp := tr.Start("petri/canonical")
	cf = n.CanonicalForm()
	sp.End()
	return cf, nil
}

// attempt runs one analysis attempt: the fault hook (tests only), then
// the traced analysis body, with panics recovered into ErrJobPanicked.
func (e *Engine) attempt(ctx context.Context, n *petri.Net, cf *petri.CanonicalForm, tr *trace.Tracer, final bool, attempt int) (rep *NetReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrJobPanicked, r)
		}
	}()
	if e.cfg.FaultHook != nil {
		if herr := e.cfg.FaultHook(ctx, cf.Hash, attempt); herr != nil {
			return nil, herr
		}
	}
	return e.analyzeTraced(ctx, n, cf, tr, final)
}

// analyzeTraced is the analysis body. The top-level spans below are
// sequential and cover every statement between the first and the last, so
// their totals account for the job's wall time (the qssd report checks
// that sum against elapsed time per net). Cancellation is checked at
// every stage boundary (and inside core's long loops via opt.Ctx); a
// cancelled job returns the report built so far plus the cause error.
// finalAttempt folds budget-typed schedule failures into the report's
// ScheduleError (the real verdict); earlier attempts surface them as
// errors so the caller's retry policy can run.
func (e *Engine) analyzeTraced(ctx context.Context, n *petri.Net, cf *petri.CanonicalForm, tr *trace.Tracer, finalAttempt bool) (*NetReport, error) {
	sp := tr.Start("petri/classify")
	rep := &NetReport{
		Name:        n.Name(),
		Hash:        cf.Hash,
		Places:      n.NumPlaces(),
		Transitions: n.NumTransitions(),
		Arcs:        len(n.Arcs()),
		Class:       n.Classify(),
		FreeChoice:  n.IsFreeChoice(),
		Sources:     sortedNames(n, n.SourceTransitions()),
		Sinks:       sortedNames(n, n.SinkTransitions()),
		FreeChoices: len(n.FreeChoiceSets()),
	}
	sp.End()
	fail := func(stage string, err error) {
		rep.Errors = append(rep.Errors, stage+": "+err.Error())
	}
	if cerr := ctxCause(ctx); cerr != nil {
		return rep, cerr
	}

	iopt := invariant.Options{MaxRows: e.cfg.Core.MaxRows, Trace: tr}
	sp = tr.Start("invariant/tsemiflows")
	tis, err := invariant.TInvariantsCached(n, iopt, semiflowCache{e.cache})
	if err != nil {
		fail("t-semiflows", err)
	} else {
		rep.TSemiflows = len(tis)
		rep.Consistent = invariant.Consistent(n, tis)
	}
	sp.End()
	sp = tr.Start("invariant/psemiflows")
	pis, err := invariant.PInvariantsCached(n, iopt, semiflowCache{e.cache})
	if err != nil {
		fail("p-semiflows", err)
	} else {
		rep.PSemiflows = len(pis)
		rep.Conservative = invariant.Conservative(n, pis)
	}
	sp.End()
	sp = tr.Start("invariant/bounds")
	if bounds, err := e.structuralBounds(n, cf, tr); err != nil {
		fail("structural-bounds", err)
	} else {
		for p, b := range bounds {
			if b != invariant.Unbounded {
				if rep.StructuralBounds == nil {
					rep.StructuralBounds = map[string]int{}
				}
				rep.StructuralBounds[n.PlaceName(petri.Place(p))] = b
			}
		}
	}
	sp.End()
	if cerr := ctxCause(ctx); cerr != nil {
		return rep, cerr
	}

	if !rep.FreeChoice || n.Validate() != nil {
		if err := n.Validate(); err != nil {
			rep.ScheduleError = err.Error()
		}
		return rep, nil
	}

	sp = tr.Start("core/reduce")
	rows, fresh, err := e.reductions(ctx, n, cf)
	if err != nil {
		if cerr := ctxCause(ctx); cerr != nil {
			sp.End()
			return rep, cerr
		}
		fail("reductions", err)
	} else {
		// Reduction survivor sets are name-sorted (and the list of sets
		// name-ordered) so the report serialises identically for
		// isomorphic nets regardless of declaration order.
		for _, ts := range rows {
			rep.Reductions = append(rep.Reductions, sortedNames(n, ts))
		}
		sort.Slice(rep.Reductions, func(a, b int) bool {
			return lessStrings(rep.Reductions[a], rep.Reductions[b])
		})
	}
	sp.End()

	sp = tr.Start("core/solve")
	sched, err := e.schedule(ctx, n, cf, fresh, tr)
	sp.End()
	if err != nil {
		if cerr := ctxCause(ctx); cerr != nil {
			// The deadline fired mid-sweep: surface the cancellation, not a
			// bogus "not schedulable" verdict.
			return rep, cerr
		}
		if !finalAttempt && errors.Is(err, core.ErrBudgetExceeded) {
			// Transient budget trip: hand it to the retry policy instead of
			// recording a verdict that a second attempt might overturn.
			return rep, err
		}
		rep.ScheduleError = err.Error()
		return rep, nil
	}
	rep.Schedulable = true
	rep.Allocations = sched.AllocationCount
	rep.AllocationsSaturated = sched.AllocationCountSaturated
	rep.Schedule = sched.Export()
	sp = tr.Start("core/bounds")
	if bounds, err := sched.BufferBounds(); err != nil {
		fail("buffer-bounds", err)
	} else {
		rep.BufferBounds = map[string]int{}
		for p, b := range bounds {
			rep.BufferBounds[n.PlaceName(petri.Place(p))] = b
		}
	}
	sp.End()

	sp = tr.Start("core/tasks")
	tp, err := core.PartitionTasks(n, e.coreOpts(ctx, tr))
	if err != nil {
		if cerr := ctxCause(ctx); cerr != nil {
			sp.End()
			return rep, cerr
		}
		fail("tasks", err)
		tp = nil
	} else {
		for _, task := range tp.Tasks {
			rep.Tasks = append(rep.Tasks, TaskReport{
				Name:        task.Name,
				Sources:     sortedNames(n, task.Sources),
				Transitions: sortedNames(n, task.Transitions),
			})
		}
		// Task order, like task names, must not depend on declaration
		// order (names are unique: one task per source group).
		sort.Slice(rep.Tasks, func(a, b int) bool { return rep.Tasks[a].Name < rep.Tasks[b].Name })
	}
	sp.End()

	if e.cfg.Timing.Enabled() && tp != nil {
		if cerr := ctxCause(ctx); cerr != nil {
			return rep, cerr
		}
		if trep, err := e.timingPass(n, cf, sched, tp, tr); err != nil {
			fail("timing", err)
		} else {
			rep.Timing = trep
		}
	}
	return rep, nil
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
