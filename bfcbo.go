// Package bfcbo is the public API of the BF-CBO reproduction: a cost-based
// query engine whose bottom-up optimizer can include Bloom filters directly
// in join enumeration (the method of Zeyl et al., "Including Bloom Filters
// in Bottom-up Optimization", SIGMOD-Companion 2025), together with an
// in-memory TPC-H data generator, an SMP executor, and the BF-Post / No-BF
// baselines the paper compares against.
//
// Quickstart:
//
//	eng, err := bfcbo.Open(bfcbo.Config{ScaleFactor: 0.01})
//	q, err := eng.ParseSQL(`SELECT * FROM orders o, lineitem l
//	                        WHERE o.o_orderkey = l.l_orderkey
//	                          AND l.l_shipmode IN ('MAIL','SHIP')`)
//	out, err := eng.Run(q, bfcbo.BFCBO)
//	fmt.Println(out.Explain, out.Rows)
package bfcbo

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"bfcbo/internal/datagen"
	"bfcbo/internal/exec"
	"bfcbo/internal/faults"
	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/sched"
	"bfcbo/internal/sqlparser"
	"bfcbo/internal/tpch"
)

// Mode selects the optimizer strategy; see the package doc of
// internal/optimizer for semantics.
type Mode = optimizer.Mode

// The four optimizer modes.
const (
	NoBF   = optimizer.NoBF
	BFPost = optimizer.BFPost
	BFCBO  = optimizer.BFCBO
	Naive  = optimizer.Naive
)

// Config configures an engine instance.
type Config struct {
	// ScaleFactor sizes the generated TPC-H dataset (1.0 ≈ 1 GB of the
	// official benchmark; 0.01–0.1 is laptop-friendly). Required.
	ScaleFactor float64
	// Seed fixes data generation; 0 uses a built-in default.
	Seed uint64
	// DOP is the degree of parallelism for planning and execution;
	// 0 defaults to 8.
	DOP int
	// MemBudget bounds the bytes of operator state the executor holds in
	// RAM (0 = unlimited). Joins and sorts whose memory grants are denied
	// spill to temp files (grace hash join / external merge sort) and
	// still return exact results; spill activity is reported in
	// Output.Spill and EXPLAIN ANALYZE. All queries of one engine draw
	// from a single shared broker, so concurrent Run calls share the
	// budget.
	MemBudget int64
	// SpillDir is the parent directory for spill files ("" = os.TempDir()).
	// Every run owns — and removes — its own query-scoped spill
	// subdirectory, even on error, so concurrent queries never touch each
	// other's temp files.
	SpillDir string
	// MaxConcurrent caps the queries the engine admits at once; further
	// RunContext calls queue FIFO behind them. 0 means unlimited admission
	// (the DOP-sized worker-slot pool still bounds actual parallelism).
	MaxConcurrent int
	// QueueTimeout bounds how long a query may wait in the admission
	// queue before failing with sched.ErrQueueTimeout; 0 means wait until
	// the caller's context cancels.
	QueueTimeout time.Duration
	// SlowQueryLog sizes the engine's flight recorder — the ring of recent
	// queries retained with full EXPLAIN ANALYZE, scheduler/memory/spill
	// stats, and lifecycle trace (served at /debug/queries when the debug
	// endpoints are enabled). 0 defaults to 32; negative disables recording.
	SlowQueryLog int
	// SlowQueryMin gates flight-recorder admission: queries faster than
	// this are not retained. Zero records every query.
	SlowQueryMin time.Duration
	// WorkloadHistory sizes the engine's workload history store — the
	// bounded per-fingerprint aggregate (exec count, p50/p95 latency,
	// observed-vs-estimated operator rows, spill bytes) keyed by each
	// query's normalized shape, served at /debug/workload. 0 defaults to
	// obs.DefaultWorkloadShapes; negative disables the store.
	WorkloadHistory int
	// Faults, when non-empty, installs the process-wide deterministic
	// fault injector from a spec like
	// "seed=42,spill.write=0.01,exec.panic=0.005,spill.diskfull=64MB"
	// (see internal/faults.Parse for the grammar). The injector is
	// process-global — every engine in the process shares it — and stays
	// installed until faults.Disable. Empty leaves the injector alone.
	Faults string
	// Overload sets the scheduler's overload-shedding thresholds; the
	// zero value disables shedding. When either signal trips — admission
	// queue-wait p95 above MaxQueueWaitP95, or broker free fraction
	// below MinFreeFraction — non-priority admissions fail fast with an
	// error wrapping ErrOverloaded that carries a retry-after hint.
	Overload OverloadConfig
	// Retry is the engine's opt-in policy for transparently retrying
	// queries that failed transiently (overload shedding, admission
	// queue timeout, injected transient faults). The zero value disables
	// retries. Deterministic failures — SQL errors, cancellation, kills,
	// contained panics with non-error values — are never retried.
	Retry RetryPolicy
	// Audit, when set, runs the post-query invariant audit (broker holds
	// zero bytes, scheduler shows no slots/admissions/waiters, no
	// leftover spill files) after every query that finishes with no
	// other query in flight, folding any violation into the returned
	// error. Meant for tests and chaos runs. Spill files are audited
	// only when SpillDir is set explicitly.
	Audit bool
}

// OverloadConfig re-exports the scheduler's overload-controller
// thresholds for Config.Overload; see sched.OverloadConfig.
type OverloadConfig = sched.OverloadConfig

// ErrOverloaded is the sentinel wrapped by shed admissions; callers that
// manage their own retries can match it with errors.Is and read the
// retry-after hint via sched.OverloadError.
var ErrOverloaded = sched.ErrOverloaded

// RetryPolicy bounds the engine's automatic retry of transient query
// failures. Backoff is exponential with jitter: attempt n sleeps
// between d and 1.5·d where d = min(BaseBackoff·2ⁿ, MaxBackoff), raised
// to the scheduler's retry-after hint when the failure carries one.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failure
	// (0 disables retrying).
	MaxRetries int
	// BaseBackoff is the first retry's nominal delay; 0 means 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 2s.
	MaxBackoff time.Duration
	// Budget caps the total time spent sleeping between retries; once
	// the next backoff would exceed it, the last error is returned
	// instead. 0 means no budget cap.
	Budget time.Duration
}

// SchedStat is the per-query scheduling report: admission queue wait,
// worker-slot waits and occupancy, and preempted-slot handoffs. See
// sched.Stat for field semantics.
type SchedStat = sched.Stat

// Engine bundles a generated database with planner, executor, and the
// process-wide query scheduler all its runs are admitted through.
type Engine struct {
	cfg     Config
	ds      *datagen.Dataset
	broker  *mem.Broker
	sched   *sched.Scheduler
	reg     *obs.Registry
	metrics *obs.Metrics
	rec     *obs.FlightRecorder
	insp    *obs.Inspector
	work    *obs.WorkloadStore
}

// Open generates the TPC-H dataset and returns a ready engine.
func Open(cfg Config) (*Engine, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("bfcbo: Config.ScaleFactor must be positive")
	}
	if cfg.DOP <= 0 {
		cfg.DOP = 8
	}
	if cfg.Faults != "" {
		inj, err := faults.Parse(cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("bfcbo: Config.Faults: %w", err)
		}
		faults.Enable(inj)
	}
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	broker := mem.NewBroker(cfg.MemBudget)
	sch := sched.New(sched.Config{
		Slots:         cfg.DOP,
		MaxConcurrent: cfg.MaxConcurrent,
		QueueTimeout:  cfg.QueueTimeout,
		Broker:        broker,
		Overload:      cfg.Overload,
	})
	reg := obs.NewRegistry()
	var rec *obs.FlightRecorder
	if cfg.SlowQueryLog >= 0 {
		n := cfg.SlowQueryLog
		if n == 0 {
			n = 32
		}
		rec = obs.NewFlightRecorder(n)
		rec.MinLatency = cfg.SlowQueryMin
	}
	var work *obs.WorkloadStore
	if cfg.WorkloadHistory >= 0 {
		work = obs.NewWorkloadStore(cfg.WorkloadHistory)
	}
	e := &Engine{
		cfg: cfg, ds: ds, broker: broker, sched: sch,
		reg: reg, metrics: obs.NewMetrics(reg), rec: rec,
		insp: obs.NewInspector(), work: work,
	}
	registerEngineMetrics(reg, sch, broker)
	return e, nil
}

// registerEngineMetrics exposes the scheduler's and memory broker's live
// state through gauge/counter funcs — read at scrape time, so the running
// engine pays nothing for them.
func registerEngineMetrics(reg *obs.Registry, sch *sched.Scheduler, broker *mem.Broker) {
	reg.NewGaugeFunc("bfcbo_sched_slots", "Worker-slot pool capacity (DOP).",
		func() float64 { return float64(sch.Capacity()) })
	reg.NewGaugeFunc("bfcbo_sched_slots_in_use", "Worker slots currently held.",
		func() float64 { return float64(sch.InUse()) })
	reg.NewGaugeFunc("bfcbo_sched_queries_admitted", "Queries currently admitted (running).",
		func() float64 { return float64(sch.Admitted()) })
	reg.NewGaugeFunc("bfcbo_sched_queries_queued", "Queries waiting in the admission queue.",
		func() float64 { return float64(sch.Queued()) })
	reg.NewGaugeFunc("bfcbo_sched_slot_waiters", "Workers currently blocked on a slot.",
		func() float64 { return float64(sch.SlotWaiters()) })
	reg.NewCounterFunc("bfcbo_sched_admitted_total", "Queries admitted since engine open.",
		func() int64 { return sch.Totals().Admitted })
	reg.NewCounterFunc("bfcbo_sched_finished_total", "Admitted queries finished since engine open.",
		func() int64 { return sch.Totals().Finished })
	reg.NewCounterFunc("bfcbo_sched_queue_timeouts_total", "Admissions failed by queue timeout.",
		func() int64 { return sch.Totals().Timeouts })
	reg.NewCounterFunc("bfcbo_sched_rejected_total", "Admissions rejected outright.",
		func() int64 { return sch.Totals().Rejections })
	reg.NewGaugeFunc("bfcbo_mem_budget_bytes", "Executor memory budget (0 = unlimited).",
		func() float64 { return float64(broker.Budget()) })
	reg.NewGaugeFunc("bfcbo_mem_used_bytes", "Bytes currently reserved from the broker.",
		func() float64 { return float64(broker.Used()) })
	reg.NewGaugeFunc("bfcbo_mem_peak_bytes", "Peak bytes reserved since engine open.",
		func() float64 { return float64(broker.Peak()) })
	reg.NewCounterFunc("bfcbo_mem_denials_total", "Reservation grows denied by the budget.",
		func() int64 { return broker.Denials() })
	reg.NewCounterFunc("bfcbo_mem_spill_triggers_total", "Denied grows that triggered an operator spill.",
		func() int64 { return broker.SpillTriggers() })
	reg.NewCounterFunc("bfcbo_sched_shed_total", "Admissions shed by the overload controller.",
		func() int64 { return sch.Totals().Shed })
	reg.NewCounterFunc("bfcbo_faults_injected_total", "Faults fired by the process-wide injector (0 when disabled).",
		faults.TotalFired)
}

// MemoryBroker exposes the engine's process-wide memory broker (budget,
// current/peak usage, denial counts) for monitoring.
func (e *Engine) MemoryBroker() *mem.Broker { return e.broker }

// Scheduler exposes the engine's process-wide query scheduler (slot pool
// occupancy, admitted and queued query counts) for monitoring.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// MetricsRegistry exposes the engine's metric registry: per-query latency
// and wait histograms, engine-total counters, and live scheduler/broker
// gauges, all exportable as Prometheus text via its WriteProm.
func (e *Engine) MetricsRegistry() *obs.Registry { return e.reg }

// FlightRecorder exposes the engine's slow-query flight recorder, or nil
// when Config.SlowQueryLog is negative.
func (e *Engine) FlightRecorder() *obs.FlightRecorder { return e.rec }

// Inspector exposes the engine's in-flight query inspector: live
// per-pipeline progress, scheduler and memory-grant state of every
// running query (served at /debug/queries/live), plus Kill.
func (e *Engine) Inspector() *obs.Inspector { return e.insp }

// Workload exposes the engine's workload history store — per-fingerprint
// exec counts, latency quantiles, and observed-vs-estimated cardinality
// aggregates (served at /debug/workload) — or nil when
// Config.WorkloadHistory is negative.
func (e *Engine) Workload() *obs.WorkloadStore { return e.work }

// Kill requests cancellation of a running query by the ID shown in
// /debug/queries/live (and in Output.Trace.QueryID). The run's workers
// stop at their next morsel boundary and the corresponding
// Run/RunContext call returns an error wrapping obs.ErrKilled. Kill
// reports whether the ID named an in-flight query.
func (e *Engine) Kill(id int64) bool { return e.insp.Kill(id) }

// Dataset gives access to the underlying schema and storage for advanced
// use (building custom query blocks).
func (e *Engine) Dataset() *datagen.Dataset { return e.ds }

// ParseSQL parses a select-project-join statement against the TPC-H schema.
func (e *Engine) ParseSQL(sql string) (*query.Block, error) {
	return sqlparser.Parse(e.ds.Schema, sql)
}

// TPCH returns the built-in join block for a TPC-H query number (1–22).
func (e *Engine) TPCH(num int) (*query.Block, error) {
	q, ok := tpch.Get(num)
	if !ok {
		return nil, fmt.Errorf("bfcbo: no TPC-H query %d", num)
	}
	return q.Build(e.ds.Schema), nil
}

// Output is the result of planning and executing one query block.
type Output struct {
	// Rows is the number of result rows of the join block.
	Rows int
	// Explain is the physical plan rendered as text, followed by the
	// EXPLAIN ANALYZE-style tree annotated with per-operator actual rows
	// and wall times.
	Explain string
	// Blooms is the number of Bloom filters in the plan.
	Blooms int
	// PlanningTime and ExecTime are the measured phase latencies.
	PlanningTime time.Duration
	ExecTime     time.Duration
	// JoinOrder is a parenthesised signature of the join tree.
	JoinOrder string
	// BloomStats reports what each filter did at runtime.
	BloomStats []exec.BloomRuntime
	// ExplainAnalyze is the plan annotated with observed per-operator rows,
	// batch counts and wall times (EXPLAIN ANALYZE style).
	ExplainAnalyze string
	// OpStats are the raw per-operator runtime counters in pipeline
	// execution order.
	OpStats []exec.OpStat
	// Pipelines reports each executed pipeline of the morsel-driven
	// executor in pipeline-ID order, including the breaker finish wall and
	// its merge/sort/build/bloom phase split. Pipelines are DAG-scheduled:
	// entries with disjoint dependency chains ran concurrently, so their
	// walls can overlap.
	Pipelines []exec.PipelineStat
	// Spill totals the run's spill activity under Config.MemBudget (all
	// zero for unlimited-budget runs).
	Spill exec.SpillStat
	// Sched reports the query's trip through the process-wide scheduler:
	// admission queue wait, worker-slot wait and occupancy, and
	// preempted-slot handoffs to concurrent queries.
	Sched SchedStat
	// Trace is the query's lifecycle trace — admission queue, per-pipeline
	// spans, breaker finish phases — exportable as Chrome trace-event JSON
	// via its WriteChrome (load in chrome://tracing or Perfetto).
	Trace *obs.Trace
}

// Plan optimizes a block without executing it.
func (e *Engine) Plan(b *query.Block, mode Mode) (*optimizer.Result, error) {
	opts := optimizer.DefaultOptions(e.cfg.ScaleFactor)
	opts.Mode = mode
	return optimizer.Optimize(b, opts)
}

// Run optimizes and executes a block under the given mode.
func (e *Engine) Run(b *query.Block, mode Mode) (*Output, error) {
	return e.RunContext(context.Background(), b, mode)
}

// RunContext is Run with admission control and cancellation: the query is
// admitted through the engine's process-wide scheduler — queueing behind
// Config.MaxConcurrent and the memory-broker admission gate, subject to
// Config.QueueTimeout — and ctx cancellation or deadline expiry (queued
// or mid-run) stops every pipeline at the next morsel and surfaces
// ctx.Err(). Any number of RunContext calls may execute concurrently on
// one Engine; they share the DOP-sized worker-slot pool and the memory
// budget, and each gets its own spill subdirectory.
//
// Under Config.Retry, transient failures — overload sheds, admission
// queue timeouts, injected transient faults — are retried with
// exponential backoff before the error surfaces; each attempt is a full
// re-execution with its own flight-recorder entry.
func (e *Engine) RunContext(ctx context.Context, b *query.Block, mode Mode) (*Output, error) {
	res, err := e.Plan(b, mode)
	if err != nil {
		return nil, err
	}
	// The fingerprint is the query's normalized shape identity — block +
	// plan shape + mode, parameterized on literals — computed once per run
	// here and carried through the inspector, the flight recorder, the
	// workload history, and the workers' pprof labels.
	fp := plan.Fingerprint(b, res.Plan)
	out, err := e.runOnce(ctx, b, mode, res, fp)
	var slept time.Duration
	for retries := 0; err != nil && retries < e.cfg.Retry.MaxRetries && transientErr(err); retries++ {
		d := e.cfg.Retry.backoff(retries, err)
		if e.cfg.Retry.Budget > 0 && slept+d > e.cfg.Retry.Budget {
			break
		}
		select {
		case <-ctx.Done():
			return nil, errors.Join(err, ctx.Err())
		case <-time.After(d):
		}
		slept += d
		e.metrics.Retries.Inc()
		out, err = e.runOnce(ctx, b, mode, res, fp)
	}
	if e.cfg.Audit && e.sched.Admitted() == 0 {
		// Only audit spill files under an explicitly configured dir —
		// a shared os.TempDir() can hold other processes' files.
		if aerr := exec.Audit(exec.AuditState{
			Broker: e.broker, Sched: e.sched, SpillDir: e.cfg.SpillDir,
		}); aerr != nil {
			err = errors.Join(err, aerr)
			out = nil
		}
	}
	return out, err
}

// transientErr reports whether a failed run may be retried: the failure
// must be environmental (shedding, queue timeout, injected transient
// fault), not a property of the query. Cancellation and kills are the
// caller's decision and never retried; contained panics retry only when
// the panic value itself was a transient injected fault.
func transientErr(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, obs.ErrKilled) {
		return false
	}
	if errors.Is(err, sched.ErrQueueTimeout) || errors.Is(err, sched.ErrOverloaded) {
		return true
	}
	var f *faults.Fault
	return errors.As(err, &f) && f.Transient()
}

// backoff computes the sleep before re-attempt n (0-based): exponential
// from BaseBackoff capped at MaxBackoff, raised to the failure's
// retry-after hint when it carries one, plus up to 50% jitter so
// concurrently shed queries don't re-arrive in lockstep.
func (p RetryPolicy) backoff(n int, err error) time.Duration {
	base, ceil := p.BaseBackoff, p.MaxBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 2 * time.Second
	}
	d := base
	for i := 0; i < n && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	var ra interface{ RetryAfter() time.Duration }
	if errors.As(err, &ra) && ra.RetryAfter() > d {
		d = ra.RetryAfter()
	}
	return d + rand.N(d/2+1)
}

// runOnce executes one attempt of an already-planned query: admission,
// execution, metrics fold, flight-recorder and workload-history entries.
func (e *Engine) runOnce(ctx context.Context, b *query.Block, mode Mode, res *optimizer.Result, fp uint64) (*Output, error) {
	start := time.Now()
	tr := obs.NewTrace(8)
	r, err := exec.RunContext(ctx, e.ds.DB, b, res.Plan, exec.Options{
		DOP:    e.cfg.DOP,
		Broker: e.broker, SpillDir: e.cfg.SpillDir,
		Sched:   e.sched,
		Metrics: e.metrics, Trace: tr,
		Inspector: e.insp, Fingerprint: fp,
	})
	execTime := time.Since(start)
	if err != nil {
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			e.metrics.PanicsRecovered.Inc()
		}
		if errors.Is(err, sched.ErrOverloaded) {
			e.metrics.QueriesShed.Inc()
		}
		e.rec.Record(obs.QueryRecord{
			ID: tr.QueryID, Label: tr.Label, Mode: mode.String(),
			Fingerprint: plan.FingerprintHex(fp),
			Start:       start, Latency: execTime, Err: err.Error(), Trace: tr,
		})
		e.work.Observe(obs.WorkloadObservation{
			Fingerprint: fp, Label: b.Name, Mode: mode.String(),
			Latency: execTime, Failed: true,
		})
		return nil, err
	}
	// ExecTime reports execution, not admission: time queued behind other
	// queries is broken out in Sched.QueueWait.
	if execTime -= r.Sched.QueueWait; execTime < 0 {
		execTime = 0
	}
	analyzed := r.ExplainAnalyze(res.Plan)
	sp := r.TotalSpill()
	e.rec.Record(obs.QueryRecord{
		ID: tr.QueryID, Label: tr.Label, Mode: mode.String(),
		Fingerprint: plan.FingerprintHex(fp),
		Start:       start, Latency: execTime + r.Sched.QueueWait, Rows: r.Rows,
		Explain:   analyzed,
		QueueWait: r.Sched.QueueWait, SlotWait: r.Sched.SlotWait,
		SlotBusy: r.Sched.SlotBusy, Handoffs: r.Sched.Handoffs,
		MemPeak:    e.broker.Peak(),
		SpillBytes: sp.Bytes, SpillRead: sp.BytesRead,
		SpillParts: int64(sp.Partitions), SpillDepth: int64(sp.Depth),
		Trace: tr,
	})
	// Fold the run into its shape's workload-history aggregate: the same
	// latency the flight recorder stores, plus the observed-vs-estimated
	// operator cardinalities the ROADMAP's feedback loop will consume.
	var opsActual, opsEst float64
	for _, a := range r.Actuals {
		opsActual += a.Actual
		opsEst += a.Node.EstRows()
	}
	e.work.Observe(obs.WorkloadObservation{
		Fingerprint: fp, Label: b.Name, Mode: mode.String(),
		Latency: execTime + r.Sched.QueueWait, Rows: int64(r.Rows),
		Ops: int64(len(r.Actuals)), OpsActualRows: opsActual, OpsEstRows: opsEst,
		SpillBytes: sp.Bytes,
	})
	return &Output{
		Rows:           r.Rows,
		Explain:        res.Plan.Explain() + analyzed,
		Blooms:         res.Plan.CountBlooms(),
		PlanningTime:   res.PlanningTime,
		ExecTime:       execTime,
		JoinOrder:      res.Plan.JoinOrderSignature(),
		BloomStats:     r.BloomStats,
		ExplainAnalyze: analyzed,
		OpStats:        r.OpStats,
		Pipelines:      r.Pipelines,
		Spill:          sp,
		Sched:          r.Sched,
		Trace:          tr,
	}, nil
}

// RunSQL is the one-call convenience: parse, plan, execute.
func (e *Engine) RunSQL(sql string, mode Mode) (*Output, error) {
	return e.RunSQLContext(context.Background(), sql, mode)
}

// RunSQLContext is RunSQL with the RunContext admission and cancellation
// semantics.
func (e *Engine) RunSQLContext(ctx context.Context, sql string, mode Mode) (*Output, error) {
	b, err := e.ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, b, mode)
}
