package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bfcbo/internal/catalog"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// This file tests error propagation and cancellation in the DAG-scheduled
// pipeline executor: a worker error must cancel sibling workers promptly
// (no draining the whole morsel source), Open/Close must pair even when
// Open fails, no goroutines may leak, and the scheduler must surface the
// injected error — never a cascade error from a dependent pipeline.

// faultOp wraps a worker's operator chain for failure injection.
type faultOp struct {
	child PhysicalOperator
	// failOpen / failBatch inject the error from Open or from NextBatch
	// (after passing batchDelay per batch through).
	failOpen   bool
	failBatch  bool
	err        error
	batchDelay time.Duration
	// shared tallies across workers
	opens, closes, batches *atomic.Int64
}

func (o *faultOp) Open() error {
	err := o.child.Open()
	o.opens.Add(1)
	if err != nil {
		return err
	}
	if o.failOpen {
		return o.err
	}
	return nil
}

func (o *faultOp) Close() error {
	o.closes.Add(1)
	return o.child.Close()
}

func (o *faultOp) NextBatch() (*Batch, error) {
	if o.failBatch {
		return nil, o.err
	}
	b, err := o.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	o.batches.Add(1)
	if o.batchDelay > 0 {
		time.Sleep(o.batchDelay)
	}
	return b, nil
}

// bigScanFixture builds a single-table database large enough that draining
// it through 1-row morsels is clearly observable, plus a scan-only plan.
func bigScanFixture(t *testing.T, rows int) (*storage.Database, *query.Block, *plan.Plan) {
	t.Helper()
	v := make([]int64, rows)
	for i := range v {
		v[i] = int64(i)
	}
	tbl, err := storage.NewTable("big", []storage.Column{
		{Name: "v", Kind: catalog.Int64, Ints: v},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := db.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema()
	if err := schema.AddTable(storage.Analyze(tbl)); err != nil {
		t.Fatal(err)
	}
	b := &query.Block{
		Name:      "big",
		Relations: []query.Relation{{Alias: "b", Table: schema.MustTable("big")}},
	}
	p := &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "b", Table: "big"}}
	return db, b, p
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime helpers).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// A worker error at DOP > 1 must surface promptly and stop sibling workers
// from draining the rest of the morsel source, and must not leak
// goroutines.
func TestWorkerErrorCancelsSiblings(t *testing.T) {
	const rows = 20_000
	db, b, p := bigScanFixture(t, rows)
	injected := errors.New("injected mid-pipeline failure")
	var opens, closes, batches atomic.Int64
	opts := Options{DOP: 8, MorselSize: 1}
	opts.injectOp = func(pl *plan.Pipeline, worker int, op PhysicalOperator) PhysicalOperator {
		f := &faultOp{child: op, err: injected,
			opens: &opens, closes: &closes, batches: &batches,
			batchDelay: 200 * time.Microsecond}
		if worker == 0 {
			f.failBatch = true
		}
		return f
	}
	before := runtime.NumGoroutine()
	_, err := Run(db, b, p, opts)
	if !errors.Is(err, injected) {
		t.Fatalf("error = %v, want the injected error", err)
	}
	waitGoroutines(t, before)
	if opens.Load() != closes.Load() {
		t.Fatalf("Open/Close unpaired: %d opens, %d closes", opens.Load(), closes.Load())
	}
	// Siblings see the stop flag per claimed morsel; each can have at most
	// a few batches in flight before the first error lands, nowhere near
	// draining the 20k one-row morsels.
	if n := batches.Load(); n > rows/10 {
		t.Fatalf("siblings drained %d of %d morsels after the failure", n, rows)
	}
}

// A failed Open must not skip Close (the chain below may have acquired
// state), and the error must surface.
func TestOpenFailureStillCloses(t *testing.T) {
	db, b, p := bigScanFixture(t, 100)
	injected := errors.New("injected open failure")
	var opens, closes, batches atomic.Int64
	opts := Options{DOP: 4, MorselSize: 8}
	opts.injectOp = func(pl *plan.Pipeline, worker int, op PhysicalOperator) PhysicalOperator {
		return &faultOp{child: op, err: injected, failOpen: true,
			opens: &opens, closes: &closes, batches: &batches}
	}
	before := runtime.NumGoroutine()
	_, err := Run(db, b, p, opts)
	if !errors.Is(err, injected) {
		t.Fatalf("error = %v, want the injected error", err)
	}
	waitGoroutines(t, before)
	if opens.Load() == 0 || opens.Load() != closes.Load() {
		t.Fatalf("Open/Close unpaired after failed Open: %d opens, %d closes", opens.Load(), closes.Load())
	}
}

// mergeJoinFixture builds a fact⋈dim plan forced through a merge join, so
// decomposition yields two independent sort pipelines (P0, P1) feeding the
// merge pipeline (P2).
func mergeJoinFixture(t *testing.T) (*storage.Database, *query.Block, *plan.Plan) {
	t.Helper()
	db := storage.NewDatabase()
	n := 4000
	fk := make([]int64, n)
	for i := range fk {
		fk[i] = int64(i % 50)
	}
	fact, err := storage.NewTable("mfact", []storage.Column{
		{Name: "fk", Kind: catalog.Int64, Ints: fk},
	})
	if err != nil {
		t.Fatal(err)
	}
	pk := make([]int64, 50)
	for i := range pk {
		pk[i] = int64(i)
	}
	dim, err := storage.NewTable("mdim", []storage.Column{
		{Name: "pk", Kind: catalog.Int64, Ints: pk},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema()
	for _, tb := range []*storage.Table{fact, dim} {
		if err := db.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		if err := schema.AddTable(storage.Analyze(tb)); err != nil {
			t.Fatal(err)
		}
	}
	b := &query.Block{
		Name: "mj",
		Relations: []query.Relation{
			{Alias: "f", Table: schema.MustTable("mfact")},
			{Alias: "d", Table: schema.MustTable("mdim")},
		},
		Clauses: []query.JoinClause{
			{Type: query.Inner, LeftRel: 0, LeftCol: "fk", RightRel: 1, RightCol: "pk"},
		},
	}
	p := &plan.Plan{Root: &plan.Join{
		Method: plan.MergeJoin, JoinType: query.Inner,
		Outer: &plan.Scan{Rel: 0, Alias: "f", Table: "mfact"},
		Inner: &plan.Scan{Rel: 1, Alias: "d", Table: "mdim"},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
	}}
	return db, b, p
}

// The DAG scheduler must surface the injected error itself — never a
// "never sorted/built (plan bug)" cascade from a dependent pipeline — and
// must do so on every run.
func TestDAGSurfacesFirstErrorDeterministically(t *testing.T) {
	db, b, p := mergeJoinFixture(t)
	injected := errors.New("injected sort-pipeline failure")
	for i := 0; i < 50; i++ {
		opts := Options{DOP: 4, MorselSize: 16}
		opts.injectOp = func(pl *plan.Pipeline, worker int, op PhysicalOperator) PhysicalOperator {
			var opens, closes, batches atomic.Int64
			f := &faultOp{child: op, err: injected,
				opens: &opens, closes: &closes, batches: &batches}
			// Fail every worker of the first sort pipeline (P0).
			if pl.ID == 0 {
				f.failBatch = true
			}
			return f
		}
		_, err := Run(db, b, p, opts)
		if !errors.Is(err, injected) {
			t.Fatalf("run %d: error = %v, want the injected error", i, err)
		}
	}
}

// Sanity: the merge-join fixture executes correctly through the DAG
// scheduler at several DOPs, agreeing with the oracle — this pins the
// parallel sort sink (per-worker runs + multiway merge) and the concurrent
// scheduling of its two sort pipelines.
func TestDAGMergeJoinMatchesOracle(t *testing.T) {
	db, b, p := mergeJoinFixture(t)
	oc := newOracleCase(t, db, b)
	for _, dop := range []int{1, 2, 4, 8} {
		for _, morsel := range []int{1, 37, 4096} {
			r, err := Run(db, b, p, Options{DOP: dop, MorselSize: morsel})
			if err != nil {
				t.Fatalf("dop %d morsel %d: %v", dop, morsel, err)
			}
			oc.check(t, fmt.Sprintf("dop %d morsel %d", dop, morsel), p, r)
		}
	}
}

// The sorted order produced by the parallel run-merge must be identical to
// the serial sortByKey order, including tie-breaks by row index.
func TestSortByKeyParMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 5000, 50_000} {
		keys := make([]int64, n)
		for i := range keys {
			// Heavy duplication exercises tie-breaking across runs.
			keys[i] = int64((i * 2654435761) % 97)
		}
		for _, nruns := range []int{1, 2, 3, 8} {
			bounds := make([]int, nruns+1)
			for r := 1; r < nruns; r++ {
				bounds[r] = r * n / nruns
			}
			bounds[nruns] = n
			got := sortByKeyPar(keys, bounds, 4)
			want := sortByKey(keys)
			if len(got) != len(want) {
				t.Fatalf("n=%d runs=%d: len %d vs %d", n, nruns, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d runs=%d: order diverges at %d: %d vs %d (keys %d vs %d)",
						n, nruns, i, got[i], want[i], keys[got[i]], keys[want[i]])
				}
			}
		}
	}
}

// Bloom-applying scans must depend on the building pipeline even when the
// structural breaker edges don't imply it (the scan sits under a sort
// breaker on the probe side) — otherwise the DAG scheduler could start the
// scan before its filter exists.
func TestDecomposeBloomDeps(t *testing.T) {
	mj := &plan.Join{Method: plan.MergeJoin, JoinType: query.Inner,
		Outer: &plan.Scan{Rel: 0, Alias: "a", Table: "a", ApplyBlooms: []int{7}},
		Inner: &plan.Scan{Rel: 1, Alias: "b", Table: "b"},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	root := &plan.Join{Method: plan.HashJoin, JoinType: query.Inner,
		Outer: mj, Inner: &plan.Scan{Rel: 2, Alias: "c", Table: "c"},
		Conds:       []plan.Cond{{OuterRel: 0, OuterCol: "y", InnerRel: 2, InnerCol: "y"}},
		BuildBlooms: []int{7}}
	pls, err := plan.Decompose(&plan.Plan{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	// P0: scan c -> hash-build (builds BF 7); P1: sort-inner b;
	// P2: sort-outer a (applies BF 7, must depend on P0); P3: merge.
	if len(pls) != 4 {
		t.Fatalf("pipelines = %d, want 4", len(pls))
	}
	var sortOuter *plan.Pipeline
	for _, pl := range pls {
		if pl.Sink == plan.SinkSortOuter {
			sortOuter = pl
		}
	}
	if sortOuter == nil {
		t.Fatal("no sort-outer pipeline")
	}
	found := false
	for _, d := range sortOuter.Deps {
		if d == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("sort-outer deps = %v, want a dependency on the Bloom-building P0\n%s",
			sortOuter.Deps, fmt.Sprint(sortOuter.Describe()))
	}
	// Dep IDs must be topological (smaller than the pipeline's own ID).
	for _, pl := range pls {
		for _, d := range pl.Deps {
			if d >= pl.ID {
				t.Fatalf("P%d has non-topological dep P%d", pl.ID, d)
			}
		}
	}
}
