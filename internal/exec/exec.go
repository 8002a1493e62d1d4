package exec

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bfcbo/internal/bloom"
	"bfcbo/internal/cost"
	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/sched"
	"bfcbo/internal/spill"
	"bfcbo/internal/storage"
)

// BloomRuntime reports what one Bloom filter did at execution time.
type BloomRuntime struct {
	ID         int
	Strategy   string // "single", "merged", "partitioned"
	Inserted   uint64
	Tested     int64
	Passed     int64
	Saturation float64
}

// NodeActual pairs a plan node with its observed output cardinality.
type NodeActual struct {
	Node   plan.Node
	Actual float64
}

// Result is the outcome of executing a plan.
type Result struct {
	// Out is the materialized final row set. It is nil when the run used
	// streaming aggregation (Options.Aggregates); use Rows then.
	Out *RowSet
	// Rows is the final output row count, set on every run.
	Rows int
	// Actuals records observed output rows per plan node, in execution
	// order, for estimate-vs-actual analysis (the paper's MAE metric).
	Actuals []NodeActual
	// BloomStats describes every Bloom filter that ran.
	BloomStats []BloomRuntime
	// OpStats reports per-operator runtime counters in pipeline execution
	// order.
	OpStats []OpStat
	// Scans reports per-scan vectorized-execution counters — morsels
	// claimed, zone-map skips, per-predicate selectivity — ordered by
	// relation index.
	Scans []ScanRuntime
	// Pipelines reports each executed pipeline.
	Pipelines []PipelineStat
	// Aggregates holds one value per Options.Aggregates spec.
	Aggregates []AggValue
	// Sched is the run's scheduling report: admission queue wait, worker
	// slot occupancy and waits, and preempted-slot handoffs under
	// concurrent queries.
	Sched sched.Stat
}

// StatFor returns the runtime counters recorded for a plan node, or nil.
func (r *Result) StatFor(n plan.Node) *OpStat {
	for i := range r.OpStats {
		if r.OpStats[i].Node == n {
			return &r.OpStats[i]
		}
	}
	return nil
}

// TotalSpill sums the spill activity across the run's pipelines (zero for
// unlimited-budget runs).
func (r *Result) TotalSpill() SpillStat {
	var s SpillStat
	for _, p := range r.Pipelines {
		s = s.add(p.Spill)
	}
	return s
}

// ActualFor returns the observed cardinality for a node (or -1).
func (r *Result) ActualFor(n plan.Node) float64 {
	for _, a := range r.Actuals {
		if a.Node == n {
			return a.Actual
		}
	}
	return -1
}

// PredRuntime is one scan predicate's observed row flow: In rows entered
// the kernel, Out survived. In/Out ratios are the measured selectivities
// the adaptive kernel chains reorder by.
type PredRuntime struct {
	Pred    string
	In, Out int64
}

// ScanRuntime reports one scan source's execution counters.
type ScanRuntime struct {
	Rel   int
	Alias string
	// Morsels is the number of morsels claimed (including skipped ones);
	// ZoneSkipped / ZoneSkippedRows count morsels (and their rows)
	// eliminated by zone-map bounds before any row was touched.
	Morsels         int64
	ZoneSkipped     int64
	ZoneSkippedRows int64
	// Preds is the per-kernel row flow in compile order.
	Preds []PredRuntime
}

// bloomHandle abstracts single, merged and partitioned filters for
// probing. The caller mixes each key once (bloom.KeyHash, the hash shared
// with the join tables) and both filter probe positions derive from that
// one value. FilterSelHashes compacts a selection vector by a batch of
// precomputed hashes; FilterSelHashesCarry additionally compacts a
// second vector in lockstep (the scan's batch hash side channel —
// calling with carry == hashes is safe).
type bloomHandle interface {
	FilterSelHashes(hashes []uint64, sel []int32) []int32
	FilterSelHashesCarry(hashes []uint64, sel []int32, carry []uint64) ([]int32, []uint64)
}

type executor struct {
	db       *storage.Database
	block    *query.Block
	dop      int
	satLimit float64
	morsel   int

	tables  []*storage.Table // by relation index
	filters map[int]bloomHandle
	fstats  map[int]*BloomRuntime
	specs   map[int]plan.BloomSpec

	// Pipelined-execution state: breaker outputs keyed by their join, the
	// per-operator stat registry, and the final output.
	builds   map[*plan.Join]*hashTable
	sorted   map[*plan.Join]*mergePair
	mats     map[*plan.Join]*nlInner
	graces   map[*plan.Join]*graceHashJoin
	stats    []*opStats
	pipes    []PipelineStat
	aggSpecs []AggSpec
	aggs     []AggValue
	out      *RowSet
	rows     int
	// scanRt collects per-scan runtime counters; appended under smu as
	// scan pipelines finish (concurrently), sorted by relation at the end.
	scanRt []ScanRuntime
	// dicts caches interned group-key columns (rel.col -> dictionary)
	// for the flat aggregation kernels; guarded by smu.
	dicts map[string]*groupDict

	// Memory-budget state: the per-query account on the memory broker, the
	// configured budget (for partition sizing), and the run's lazily
	// created spill directory, removed unconditionally when Run returns.
	memq        *mem.Query
	budget      int64
	spillParent string
	spillMu     sync.Mutex
	spillDir    *spill.Dir

	mu      sync.Mutex
	actuals []NodeActual

	// DAG-scheduling state. Pipelines run concurrently once their
	// dependencies complete, so the breaker-output maps above, the filter
	// maps, and the stat registries are written by concurrent finishes —
	// smu guards them all. stop is the run-wide cancellation flag set by
	// the first worker error (or context cancellation) and checked by
	// every morsel source; stopCh closes at the same moment, waking
	// workers blocked on slot acquisition or the grace-join writer
	// barrier.
	smu       sync.Mutex
	firstErr  error
	stop      atomic.Bool
	stopCh    chan struct{}
	stopOnce  sync.Once
	pipeStats map[int][]*opStats
	injectOp  func(pl *plan.Pipeline, worker int, op PhysicalOperator) PhysicalOperator

	// Inter-query scheduling state: ticket is this run's admission into
	// the process-wide scheduler and the handle its workers lease slots
	// from — the global worker budget is the scheduler's slot capacity,
	// shared by every concurrently admitted query, so total running
	// workers stay at DOP across queries, not per query. queryTag scopes
	// the run's spill subdirectory to its scheduler query ID.
	ticket   *sched.Query
	queryTag string

	// trace, when non-nil, receives pipeline/breaker spans (Options.Trace).
	trace *obs.Trace

	// live, when non-nil, is this run's entry in the in-flight query
	// inspector: per-pipeline progress cells the workers fold into at
	// morsel boundaries, plus the kill hook routing Inspector.Kill into
	// fail(). pctx and fpHex feed the workers' pprof labels
	// (query/fingerprint/pipeline) so CPU profiles attribute samples to
	// queries.
	live  *obs.LiveQuery
	pctx  context.Context
	fpHex string
}

// filter returns a built Bloom filter handle and its runtime record.
func (ex *executor) filter(id int) (bloomHandle, *BloomRuntime, bool) {
	ex.smu.Lock()
	defer ex.smu.Unlock()
	h, ok := ex.filters[id]
	return h, ex.fstats[id], ok
}

// setFilter publishes a built filter; called by concurrent build sinks.
func (ex *executor) setFilter(id int, h bloomHandle, st *BloomRuntime) {
	ex.smu.Lock()
	ex.filters[id] = h
	ex.fstats[id] = st
	ex.smu.Unlock()
}

// Options configure execution.
type Options struct {
	// DOP is the degree of parallelism (goroutines per exchange); 0 means
	// GOMAXPROCS capped at 8.
	DOP int
	// SaturationLimit, when in (0,1), enables the adaptive behaviour the
	// paper sketches as future work (§5): after a Bloom filter is built,
	// its bit-vector saturation is checked and a filter saturated beyond
	// the limit is not sent to the probe side — it would filter almost
	// nothing while still costing a test per row. Skipped filters are
	// reported with Strategy "skipped".
	SaturationLimit float64
	// MorselSize overrides the rows-per-morsel granularity of the
	// pipelined executor; 0 means DefaultMorselSize.
	MorselSize int
	// Aggregates, when non-empty, replaces final-result materialization
	// with streaming aggregation: Result.Out stays nil and
	// Result.Aggregates holds one value per spec.
	Aggregates []AggSpec
	// MemBudget bounds the bytes of operator state the executor
	// materializes in RAM (0 = unlimited). When a breaker's grant is
	// denied, it spills: hash joins run as grace hash joins over partition
	// files, sorts as external merge sorts over sorted runs. The final
	// result (and other mandatory allocations) are accounted but never
	// denied.
	MemBudget int64
	// SpillDir is the parent directory for the run's spill files
	// ("" = os.TempDir()). Each run creates — and always removes — its own
	// subdirectory, even on error or cancellation.
	SpillDir string
	// Broker, when non-nil, is a shared process-wide memory broker the
	// run's per-query reservation draws from (several concurrent queries
	// can then share one budget). It overrides MemBudget.
	Broker *mem.Broker
	// Sched, when non-nil, is the process-wide query scheduler the run is
	// admitted through: admission control (max concurrent queries, queue
	// timeout) plus the shared worker-slot pool all admitted queries lease
	// from. When nil, the run gets a private scheduler with DOP slots —
	// the single-query behaviour of earlier versions.
	Sched *sched.Scheduler
	// Priority routes the query through the scheduler's priority lane
	// (admission and slot arbitration).
	Priority bool
	// Metrics, when non-nil, receives the run's folded totals — latency,
	// scheduler stats, scan/probe/fold counters, spill bytes — in one cold
	// pass when the run ends. Nothing on the per-row or per-batch hot path
	// touches it (the per-worker local fold pattern).
	Metrics *obs.Metrics
	// Trace, when non-nil, collects the query's lifecycle spans (queue,
	// pipelines, breaker finish phases) for Chrome trace-event export.
	// Spans are recorded at pipeline granularity — a handful per query.
	Trace *obs.Trace
	// Inspector, when non-nil, registers the run with the in-flight query
	// inspector for the duration of execution: live per-pipeline progress
	// (morsels, rows scanned/emitted, completion fraction), scheduler and
	// memory-grant state, and a kill hook routed into the run-wide stop
	// flag. Progress folds happen at morsel boundaries only — no per-row
	// atomics, no allocation.
	Inspector *obs.Inspector
	// Fingerprint, when non-zero, is the query's normalized shape identity
	// (plan.Fingerprint), shown by the inspector and stamped on the
	// workers' pprof labels.
	Fingerprint uint64

	// injectOp, when set (tests only), wraps each worker's operator chain
	// of every pipeline — the failure-injection hook for cancellation and
	// error-propagation tests.
	injectOp func(pl *plan.Pipeline, worker int, op PhysicalOperator) PhysicalOperator
}

// minSpillableGrant is the per-spillable-breaker memory floor used to
// register a query's minimum grant with the scheduler: roughly the
// partition-routing working set a grace join or external sort needs to
// make progress instead of thrashing.
const minSpillableGrant = 256 << 10

// Run executes a physical plan over the database and returns the final row
// set with per-node actuals and Bloom filter statistics.
func Run(db *storage.Database, block *query.Block, p *plan.Plan, opts Options) (*Result, error) {
	return RunContext(context.Background(), db, block, p, opts)
}

// RunContext is Run with admission control and cancellation: the query is
// admitted through Options.Sched (queueing under the scheduler's
// concurrency and memory policies) before executing, and ctx cancellation
// or deadline expiry — while queued or mid-run — trips the run-wide stop
// flag, winds every pipeline down at the next morsel, and surfaces
// ctx.Err().
func RunContext(ctx context.Context, db *storage.Database, block *query.Block, p *plan.Plan, opts Options) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dop := opts.DOP
	if dop <= 0 {
		dop = runtime.GOMAXPROCS(0)
		if dop > 8 {
			dop = 8
		}
	}
	morsel := opts.MorselSize
	if morsel <= 0 {
		morsel = DefaultMorselSize
	}
	broker := opts.Broker
	if broker == nil {
		broker = mem.NewBroker(opts.MemBudget)
	}
	scheduler := opts.Sched
	if scheduler == nil {
		scheduler = sched.New(sched.Config{Slots: dop, Broker: broker})
	}
	// Register the pipeline DAG with the scheduler and wait for admission.
	// Decomposition happens before admission on purpose: it is cheap, needs
	// no execution resources, and its summary (spillable breakers) sizes
	// the minimum memory grant the admission gate checks.
	pipes, err := plan.Decompose(p)
	if err != nil {
		return nil, err
	}
	dag := plan.SummarizeDAG(pipes)
	desc := sched.QueryDesc{Label: block.Name, Priority: opts.Priority,
		Pipelines: dag.Pipelines, Edges: dag.Edges,
		MinMemory: sched.MinMemoryFor(broker, dag.SpillableSinks, minSpillableGrant)}
	admitStart := time.Now()
	ticket, err := scheduler.Admit(ctx, desc)
	if err != nil {
		// A query turned away at admission (timeout, rejection, cancel)
		// still counts: its whole life was queue wait.
		if opts.Metrics != nil {
			wait := time.Since(admitStart)
			opts.Metrics.ObserveQuery(wait, wait, 0, 0, 0, 0, true)
		}
		return nil, err
	}
	defer ticket.Finish()
	if opts.Trace != nil {
		opts.Trace.QueryID = ticket.ID()
		if opts.Trace.Label == "" {
			opts.Trace.Label = block.Name
		}
		if qw := ticket.Stats().QueueWait; qw > 0 {
			opts.Trace.Add("queue", "sched", 0, admitStart, qw)
		}
	}
	// Fold the run's observability totals exactly once, on every exit path
	// after admission — success, executor error, or cancellation. One cold
	// pass per query; registered before ticket.Finish()'s LIFO turn so the
	// occupancy integral is still live when read.
	runStart := time.Now()
	if opts.Metrics != nil || opts.Trace != nil {
		defer func() {
			if opts.Trace != nil {
				opts.Trace.Add("query", "query", 0, runStart, time.Since(runStart))
			}
			if opts.Metrics != nil {
				st := ticket.Stats()
				rows := 0
				if res != nil {
					rows = res.Rows
				}
				opts.Metrics.ObserveQuery(time.Since(admitStart), st.QueueWait,
					st.SlotWait, st.SlotBusy, st.Handoffs, rows, err != nil)
				if res != nil {
					foldResultMetrics(opts.Metrics, res)
				}
			}
		}()
	}
	ex := &executor{
		db: db, block: block, dop: dop, satLimit: opts.SaturationLimit,
		morsel:      morsel,
		filters:     make(map[int]bloomHandle),
		fstats:      make(map[int]*BloomRuntime),
		specs:       make(map[int]plan.BloomSpec),
		builds:      make(map[*plan.Join]*hashTable),
		sorted:      make(map[*plan.Join]*mergePair),
		mats:        make(map[*plan.Join]*nlInner),
		graces:      make(map[*plan.Join]*graceHashJoin),
		aggSpecs:    opts.Aggregates,
		injectOp:    opts.injectOp,
		pipeStats:   make(map[int][]*opStats),
		memq:        broker.NewQuery(block.Name),
		budget:      broker.Budget(),
		spillParent: opts.SpillDir,
		stopCh:      make(chan struct{}),
		ticket:      ticket,
		queryTag:    fmt.Sprintf("q%d", ticket.ID()),
		trace:       opts.Trace,
		pctx:        ctx,
	}
	if opts.Fingerprint != 0 {
		ex.fpHex = plan.FingerprintHex(opts.Fingerprint)
	}
	// Top-level panic containment: anything that panics on this goroutine
	// — rowset wiring guards, fork-join helpers rethrowing a trapped
	// worker panic — becomes this query's typed *PanicError instead of a
	// process abort. Registered before the resource defers below, so in
	// unwind order the spill dir, memory account, and ticket are all
	// released first, then the panic converts, then the metrics defer
	// observes the error like any other failure.
	defer func() {
		if v := recover(); v != nil {
			err = ex.panicErr(v, "query execution")
			ex.fail(err) // stop any straggling helper between batches
			res = nil
		}
	}()
	// The query account and any spill files are torn down no matter how the
	// run ends — success, error, or cancellation — so a budgeted run can
	// never leak reserved bytes or temp files.
	defer ex.memq.Close()
	defer ex.cleanupSpill()
	// Context cancellation and deadlines feed the run-wide stop flag; the
	// watcher is released when the run returns.
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				ex.fail(ctx.Err())
			case <-watchDone:
			}
		}()
		defer close(watchDone)
	}
	for _, s := range p.Blooms {
		ex.specs[s.ID] = s
	}
	ex.tables = make([]*storage.Table, len(block.Relations))
	for i, r := range block.Relations {
		t, err := db.Table(r.Table.Name)
		if err != nil {
			return nil, fmt.Errorf("exec: relation %s: %w", r.Alias, err)
		}
		ex.tables[i] = t
	}
	// Publish the run to the in-flight inspector. Planned morsel counts
	// fix each pipeline's progress denominator up front: exact for scans
	// (the shared cursor claims every morsel, even ones zone-maps skip),
	// planner-estimated for merge sources — snapshot fractions cap below
	// 1 until the sink finishes, so estimates cannot make progress
	// retreat. Deregistration is deferred, covering every exit path.
	if opts.Inspector != nil {
		lq := obs.NewLiveQuery(ticket.ID(), block.Name, ex.fpHex, p.Mode)
		for _, pl := range pipes {
			var planned, srcRows int64
			if s, ok := pl.Source.(*plan.Scan); ok {
				srcRows = int64(ex.tables[s.Rel].NumRows())
				planned = (srcRows + int64(morsel) - 1) / int64(morsel)
			} else {
				planned = (int64(pl.Source.EstRows()) + int64(morsel) - 1) / int64(morsel)
			}
			lq.AddPipeline(pl.ID, pl.Describe(), planned, int64(morsel), srcRows)
		}
		lq.OnKill(func() { ex.fail(fmt.Errorf("exec: %w", obs.ErrKilled)) })
		lq.SetSchedFn(func() obs.LiveSched {
			st := ticket.Stats()
			return obs.LiveSched{Held: ticket.Held(), QueueWait: st.QueueWait,
				SlotWait: st.SlotWait, SlotBusy: st.SlotBusy, Handoffs: st.Handoffs}
		})
		lq.SetMemFn(ex.memq.Used)
		ex.live = lq
		opts.Inspector.Register(lq)
		defer opts.Inspector.Deregister(lq.ID)
	}
	if err := ex.runPipelined(pipes); err != nil {
		return nil, err
	}
	// Scan pipelines finish in DAG order, not relation order; sort the
	// collected runtimes so reports are deterministic.
	sort.Slice(ex.scanRt, func(i, j int) bool { return ex.scanRt[i].Rel < ex.scanRt[j].Rel })
	res = &Result{
		Out: ex.out, Rows: ex.rows, Actuals: ex.actuals,
		Pipelines: ex.pipes, Aggregates: ex.aggs,
		Scans: ex.scanRt,
		Sched: ticket.Stats(),
	}
	for _, st := range ex.stats {
		res.OpStats = append(res.OpStats, st.snapshot())
	}
	for _, s := range p.Blooms {
		if st, ok := ex.fstats[s.ID]; ok {
			res.BloomStats = append(res.BloomStats, *st)
		}
	}
	return res, nil
}

func (ex *executor) record(n plan.Node, rows int) {
	ex.mu.Lock()
	ex.actuals = append(ex.actuals, NodeActual{Node: n, Actual: float64(rows)})
	ex.mu.Unlock()
}

// buildBlooms populates this hash join's Bloom filters from its build-side
// result, choosing the §3.9 strategy from the join's streaming annotation:
//
//   - broadcast build side  -> one filter from one (logical) copy (strategy 1)
//   - redistribute          -> dop partial filters, probed via distributed
//     lookup on the key (strategies 3/4)
//   - single-threaded       -> one filter ("merged" degenerate case of
//     strategy 2: the union of one partial filter per thread)
//
// When ht is non-nil and a filter's build column is the join's hash-key
// column, the build side's precomputed hash vector feeds the filter
// inserts directly — each build key was mixed once, for the Bloom bits,
// the partition routing, and the join directory alike.
func (ex *executor) buildBlooms(j *plan.Join, inner *RowSet, ht *hashTable) error {
	for _, id := range j.BuildBlooms {
		spec, ok := ex.specs[id]
		if !ok {
			return fmt.Errorf("exec: join builds unknown Bloom filter %d", id)
		}
		tbl := ex.tables[spec.BuildRel]
		col, err := tbl.Column(spec.BuildCol)
		if err != nil {
			return fmt.Errorf("exec: bloom %d build column: %w", id, err)
		}
		keyOf := func(rid int32) int64 { return col.Ints[rid] }
		if spec.BuildCol2 != "" {
			col2, err := tbl.Column(spec.BuildCol2)
			if err != nil {
				return fmt.Errorf("exec: bloom %d build column: %w", id, err)
			}
			keyOf = func(rid int32) int64 {
				return bloom.CombineKeys(col.Ints[rid], col2.Ints[rid])
			}
		}
		ids := inner.Col(spec.BuildRel)
		// hashes[i], when non-nil, is bloom.KeyHash(keyOf(ids[i])) —
		// exactly the join build's hash vector when this filter's build
		// column is the hash condition's key column.
		var hashes []uint64
		if ht != nil && len(j.Conds) > 0 && spec.BuildCol2 == "" &&
			spec.BuildRel == j.Conds[0].InnerRel && spec.BuildCol == j.Conds[0].InnerCol {
			hashes = ht.innerHashes
		}
		ndv := uint64(spec.EstBuildNDV)
		if ndv == 0 {
			ndv = uint64(len(ids)) + 1
		}
		st := &BloomRuntime{ID: id}
		var handle bloomHandle
		switch {
		case ex.dop <= 1:
			f, err := bloomFromIDs(ids, keyOf, hashes, ndv, 1)
			if err != nil {
				return err
			}
			handle, st.Strategy, st.Inserted, st.Saturation = f, "single", f.Inserted(), f.Saturation()
		case j.Streaming == cost.BroadcastInner:
			// Build-side broadcast: the n logical copies are redundant; one
			// filter is built from one copy (§3.9 strategy 1). The one copy
			// is still populated from per-worker partials unioned at the
			// end — strategy 1 constrains which data is inserted, not how
			// many local threads insert it, and the bit-vector union yields
			// the identical filter.
			f, err := bloomFromIDs(ids, keyOf, hashes, ndv, ex.dop)
			if err != nil {
				return err
			}
			handle, st.Strategy, st.Inserted, st.Saturation = f, "single", f.Inserted(), f.Saturation()
		case j.Streaming == cost.BroadcastOuter:
			// Probe-side broadcast: the build side's n threads are NOT
			// redundant — each builds a partial filter over its local
			// slice and the partials are merged by bit-vector union
			// (§3.9 strategy 2).
			f, err := bloomFromIDs(ids, keyOf, hashes, ndv, ex.dop)
			if err != nil {
				return err
			}
			handle, st.Strategy, st.Inserted, st.Saturation = f, "merged", f.Inserted(), f.Saturation()
		default:
			// Redistributed build: n partial filters, one per partition,
			// built in parallel; probes use distributed lookup (§3.9
			// strategies 3 and 4).
			// Size each partition for a generous share of the NDV
			// estimate: estimates run low and key skew concentrates
			// values, so a tight ndv/dop budget would inflate the FPR.
			perPart := (2*ndv)/uint64(ex.dop) + 16
			pf, err := bloom.NewPartitioned(ex.dop, perPart)
			if err != nil {
				return err
			}
			var wg sync.WaitGroup
			var trap panicTrap
			// The shuffle carries hashes, not keys: the hash selects the
			// partition and sets the partition filter's bits, so each key
			// is mixed exactly once even through the exchange.
			chunks := make([][][]uint64, ex.dop) // producer -> partition -> key hashes
			n := len(ids)
			for c := 0; c < ex.dop; c++ {
				lo := c * n / ex.dop
				hi := (c + 1) * n / ex.dop
				chunks[c] = make([][]uint64, ex.dop)
				wg.Add(1)
				go func(c, lo, hi int) {
					defer wg.Done()
					defer trap.catch()
					for i := lo; i < hi; i++ {
						h := bloom.KeyHash(keyOf(ids[i]))
						if hashes != nil {
							h = hashes[i]
						}
						part := int(h % uint64(ex.dop))
						chunks[c][part] = append(chunks[c][part], h)
					}
				}(c, lo, hi)
			}
			wg.Wait()
			trap.rethrow()
			// Each partition owner inserts its shuffled key hashes.
			for part := 0; part < ex.dop; part++ {
				wg.Add(1)
				go func(part int) {
					defer wg.Done()
					defer trap.catch()
					f := pf.Part(part)
					for c := 0; c < ex.dop; c++ {
						for _, h := range chunks[c][part] {
							f.AddHash(h)
						}
					}
				}(part)
			}
			wg.Wait()
			trap.rethrow()
			handle, st.Strategy, st.Inserted, st.Saturation = pf, "partitioned", pf.Inserted(), pf.Saturation()
		}
		// Future-work extension (§5): monitor bit-vector saturation and
		// drop filters that came out too dense to be useful (the build
		// side's NDV was underestimated).
		if ex.satLimit > 0 && ex.satLimit < 1 && st.Saturation > ex.satLimit {
			st.Strategy = "skipped"
			ex.setFilter(id, passAllFilter{}, st)
			continue
		}
		ex.setFilter(id, handle, st)
	}
	return nil
}

// bloomFromIDs populates one filter from the build-side row ids using dop
// per-worker partial filters merged by bit-vector union. The union of
// equally sized partials is bit-identical to a serial build (OR is
// commutative) and Inserted counts sum, so runtime stats stay deterministic
// across DOP. hashes, when non-nil, is the build side's precomputed
// KeyHash vector (aligned with ids) — the inserts then never rehash.
func bloomFromIDs(ids []int32, keyOf func(int32) int64, hashes []uint64, ndv uint64, dop int) (*bloom.Filter, error) {
	n := len(ids)
	insertRange := func(f *bloom.Filter, lo, hi int) {
		if hashes != nil {
			for _, h := range hashes[lo:hi] {
				f.AddHash(h)
			}
			return
		}
		for _, rid := range ids[lo:hi] {
			f.AddHash(bloom.KeyHash(keyOf(rid)))
		}
	}
	// Weight 4: one key mix, one derived rehash and two bit sets per row,
	// plus the final union.
	if dop <= 1 || !parallelFinishThreshold(n, 4, dop) {
		f := bloom.NewForNDV(ndv)
		insertRange(f, 0, n)
		return f, nil
	}
	partials := make([]*bloom.Filter, dop)
	var wg sync.WaitGroup
	var trap panicTrap
	for c := 0; c < dop; c++ {
		partials[c] = bloom.NewForNDV(ndv)
		lo, hi := c*n/dop, (c+1)*n/dop
		wg.Add(1)
		go func(f *bloom.Filter, lo, hi int) {
			defer wg.Done()
			defer trap.catch()
			insertRange(f, lo, hi)
		}(partials[c], lo, hi)
	}
	wg.Wait()
	trap.rethrow()
	merged := partials[0]
	for _, f := range partials[1:] {
		if err := merged.Union(f); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// passAllFilter stands in for a skipped (over-saturated) Bloom filter.
type passAllFilter struct{}

func (passAllFilter) FilterSelHashes(_ []uint64, sel []int32) []int32 {
	return sel
}
func (passAllFilter) FilterSelHashesCarry(_ []uint64, sel []int32, carry []uint64) ([]int32, []uint64) {
	return sel, carry[:len(sel)]
}

// yieldSlot releases the caller's global worker slot; acquireSlot takes
// one back (false when the run was canceled while waiting — the caller
// then holds no slot). Operators that block on other workers of their
// pipeline (the grace join's writer barrier) bracket the wait with these
// so blocked workers never starve the workers they wait for out of the
// pool — which, under the process-wide scheduler, they now share with
// every other admitted query. maybeYield is the morsel-boundary
// preemption point: under cross-query contention a worker over its
// query's fair share hands its slot off and re-acquires.
func (ex *executor) yieldSlot()        { ex.ticket.Release() }
func (ex *executor) acquireSlot() bool { return ex.ticket.Acquire(ex.stopCh) }
func (ex *executor) maybeYield() bool  { return ex.ticket.MaybeYield(ex.stopCh) }

// foldResultMetrics lands one finished run's stat-struct totals in the
// metrics registry. This is the whole per-query cost of the metrics layer:
// the stats themselves were already folded from per-worker locals at
// operator Close, so this single pass touches a few dozen counters.
func foldResultMetrics(m *obs.Metrics, r *Result) {
	for _, sc := range r.Scans {
		m.MorselsScanned.Add(sc.Morsels)
		m.MorselsSkipped.Add(sc.ZoneSkipped)
		m.RowsZoneSkipped.Add(sc.ZoneSkippedRows)
	}
	for _, st := range r.OpStats {
		if _, ok := st.Node.(*plan.Join); ok && strings.Contains(st.Label, "probe") {
			m.ProbeRows.Add(st.RowsIn)
			m.HashCarried.Add(st.HashReusedKeys)
		}
	}
	for _, p := range r.Pipelines {
		// Fold activity is only identifiable by its in-stream fold time or
		// carried codes; pipelines without either contribute nothing here.
		if p.Phases.Fold > 0 || p.FoldCodeReused > 0 {
			m.FoldRows.Add(p.Rows)
			m.DictCarried.Add(p.FoldCodeReused)
		}
	}
	sp := r.TotalSpill()
	m.SpillBytes.Add(sp.Bytes)
	m.SpillReadBytes.Add(sp.BytesRead)
	m.SpillParts.Add(int64(sp.Partitions))
}
