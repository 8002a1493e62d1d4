package exec

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// The memory-budget equivalence suite: with MemBudget set below the
// smallest join build side, every breaker spills, and the results must
// still match the oracle, with the unlimited-budget run's node actuals and
// Bloom filter tallies, and with no temp files left behind. The quick
// default covers a representative query mix; -mem-budget-test (CI's
// constrained-memory step) runs the full TPC-H grid.

var memBudgetFull = flag.Bool("mem-budget-test", false,
	"run the memory-budget equivalence suite over every TPC-H query instead of the quick subset")

// tinyBudget is below any non-empty join build side (one row of one
// relation is 4 bytes), so every join and sort spills.
const tinyBudget = 1

// canonicalRows fingerprints a row set as a sorted multiset of tuples, so
// outputs can be compared across runs whose row order differs (spilling
// reorders partitions; worker interleaving reorders parts). Columns of
// relations in skip are excluded: semi/anti joins allocate their inner
// side's columns but fill them with *a* matching row id — which match is
// first depends on build order, and downstream never reads them.
func canonicalRows(rs *RowSet, skip query.RelSet) []string {
	if rs == nil {
		return nil
	}
	cols := make([][]int32, 0, len(rs.cols))
	for _, rel := range rs.rels.Members() {
		if !skip.Has(rel) {
			cols = append(cols, rs.Col(rel))
		}
	}
	n := rs.Len()
	rows := make([]string, n)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.Reset()
		for _, col := range cols {
			fmt.Fprintf(&sb, "%d,", col[i])
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

// phantomRels collects the relations under semi/anti join inner sides —
// the columns whose values are unexposed implementation detail.
func phantomRels(p *plan.Plan) query.RelSet {
	var skip query.RelSet
	for _, j := range p.Joins() {
		if j.JoinType == query.Semi || j.JoinType == query.Anti {
			skip = skip.Union(j.Inner.Rels())
		}
	}
	return skip
}

func assertNoSpillFiles(t *testing.T, root string) {
	t.Helper()
	var leftover []string
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && path != root {
			leftover = append(leftover, path)
		}
		return nil
	})
	if len(leftover) > 0 {
		t.Errorf("spill files leaked under %s: %v", root, leftover)
	}
}

func TestExecutorEquivalenceMemBudget(t *testing.T) {
	ds := equivalenceDataset(t)
	queries := []int{3, 5, 8, 12, 21}
	if *memBudgetFull {
		queries = nil
		for _, q := range tpch.All() {
			queries = append(queries, q.Num)
		}
	}
	for _, num := range queries {
		block, p := optimizeTPCH(t, ds, num, optimizer.BFCBO)
		oc := newOracleCase(t, ds.DB, block)
		for _, dop := range []int{1, 4} {
			// The baseline runs unlimited at the same DOP: Bloom filter
			// strategy — and so false-positive rate and intermediate
			// actuals — legitimately varies with DOP.
			baseline, err := Run(ds.DB, block, p, Options{DOP: dop})
			if err != nil {
				t.Fatalf("Q%d dop %d: unlimited run: %v", num, dop, err)
			}
			if s := baseline.TotalSpill(); s.Spilled() {
				t.Errorf("Q%d dop %d: unlimited-budget run spilled: %+v", num, dop, s)
			}
			spillRoot := t.TempDir()
			r, err := Run(ds.DB, block, p, Options{
				DOP: dop, MemBudget: tinyBudget, SpillDir: spillRoot,
			})
			if err != nil {
				t.Fatalf("Q%d dop %d: budgeted run: %v", num, dop, err)
			}
			oc.check(t, fmt.Sprintf("Q%d dop %d budgeted", num, dop), p, r)
			// Per-node actuals are deterministic row counts; they must
			// survive spilling unchanged.
			for _, na := range baseline.Actuals {
				if got := r.ActualFor(na.Node); got != na.Actual {
					t.Errorf("Q%d dop %d: node actual diverges under budget: %v vs %v",
						num, dop, na.Actual, got)
				}
			}
			// Every query with a join must spill under the tiny budget; a
			// joinless scan has no spillable breaker state.
			if s := r.TotalSpill(); !s.Spilled() && len(p.Joins()) > 0 {
				t.Errorf("Q%d dop %d: tiny budget never spilled", num, dop)
			}
			// Bloom filters are bit-identical whether built in memory or
			// streamed from spill files, so runtime tallies must agree at
			// equal DOP.
			base := bloomByID(baseline.BloomStats)
			budg := bloomByID(r.BloomStats)
			if len(base) != len(budg) {
				t.Errorf("Q%d dop %d: bloom stat count diverges under budget: %d vs %d",
					num, dop, len(base), len(budg))
			}
			for id, b := range base {
				p, ok := budg[id]
				if !ok {
					t.Errorf("Q%d dop %d: bloom %d missing from budgeted run", num, dop, id)
					continue
				}
				if b.Strategy != p.Strategy || b.Inserted != p.Inserted ||
					b.Tested != p.Tested || b.Passed != p.Passed {
					t.Errorf("Q%d dop %d: bloom %d diverges under budget: %+v vs %+v", num, dop, id, b, p)
				}
			}
			assertNoSpillFiles(t, spillRoot)
		}
	}
}

// skewJoinFixture builds a hash join whose build side is one heavily
// repeated key — hash repartitioning cannot split it, so a tiny budget
// drives the grace join down to its recursion cap before force-loading.
func skewJoinFixture(t *testing.T, buildRows, probeRows int) (*storage.Database, *query.Block, *plan.Plan) {
	t.Helper()
	db := storage.NewDatabase()
	fk := make([]int64, probeRows)
	for i := range fk {
		fk[i] = 7
	}
	fact, err := storage.NewTable("sfact", []storage.Column{
		{Name: "fk", Kind: catalog.Int64, Ints: fk},
	})
	if err != nil {
		t.Fatal(err)
	}
	pk := make([]int64, buildRows)
	for i := range pk {
		pk[i] = 7
	}
	dim, err := storage.NewTable("sdim", []storage.Column{
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
		Name: "skew",
		Relations: []query.Relation{
			{Alias: "f", Table: schema.MustTable("sfact")},
			{Alias: "d", Table: schema.MustTable("sdim")},
		},
		Clauses: []query.JoinClause{
			{Type: query.Inner, LeftRel: 0, LeftCol: "fk", RightRel: 1, RightCol: "pk"},
		},
	}
	p := &plan.Plan{Root: &plan.Join{
		Method: plan.HashJoin, JoinType: query.Inner,
		Outer: &plan.Scan{Rel: 0, Alias: "f", Table: "sfact"},
		Inner: &plan.Scan{Rel: 1, Alias: "d", Table: "sdim"},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
	}}
	return db, b, p
}

// A skewed partition that hashing cannot split must recurse to the depth
// cap, force-load there, and still produce the exact join result.
func TestGraceJoinRecursionDepthCap(t *testing.T) {
	const buildRows, probeRows = graceMinPartRows + 1000, 10
	db, b, p := skewJoinFixture(t, buildRows, probeRows)
	spillRoot := t.TempDir()
	r, err := Run(db, b, p, Options{DOP: 4, MemBudget: tinyBudget, SpillDir: spillRoot})
	if err != nil {
		t.Fatal(err)
	}
	if want := buildRows * probeRows; r.Rows != want {
		t.Fatalf("rows = %d, want %d", r.Rows, want)
	}
	s := r.TotalSpill()
	if !s.Spilled() {
		t.Fatal("skew join under tiny budget never spilled")
	}
	if s.Depth != graceMaxDepth {
		t.Fatalf("recursion depth = %d, want the cap %d (unsplittable key)", s.Depth, graceMaxDepth)
	}
	assertNoSpillFiles(t, spillRoot)
}

// The external sort must agree with the in-memory sort through a merge
// join at every DOP.
func TestExternalSortMatchesInMemory(t *testing.T) {
	db, b, p := mergeJoinFixture(t)
	want, err := Run(db, b, p, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 4} {
		spillRoot := t.TempDir()
		r, err := Run(db, b, p, Options{DOP: dop, MemBudget: tinyBudget, SpillDir: spillRoot})
		if err != nil {
			t.Fatalf("dop %d: %v", dop, err)
		}
		if r.Rows != want.Rows {
			t.Fatalf("dop %d: rows = %d, want %d", dop, r.Rows, want.Rows)
		}
		if s := r.TotalSpill(); !s.Spilled() {
			t.Fatalf("dop %d: merge-join sort never spilled under tiny budget", dop)
		}
		gw := canonicalRows(want.Out, 0)
		gr := canonicalRows(r.Out, 0)
		for i := range gw {
			if gr[i] != gw[i] {
				t.Fatalf("dop %d: tuple %d diverges", dop, i)
			}
		}
		assertNoSpillFiles(t, spillRoot)
	}
}

// A worker failure in the middle of a spilling run must cancel cleanly:
// the injected error surfaces, no goroutines leak, and — critically for
// the spill subsystem — no temp files survive the run.
func TestCancelMidSpillLeavesNoTempFiles(t *testing.T) {
	ds := equivalenceDataset(t)
	q, _ := tpch.Get(12)
	block := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected mid-spill failure")
	spillRoot := t.TempDir()
	ropts := Options{DOP: 4, MemBudget: tinyBudget, SpillDir: spillRoot}
	ropts.injectOp = func(pl *plan.Pipeline, worker int, op PhysicalOperator) PhysicalOperator {
		// Fail the result pipeline's workers: by then the hash builds have
		// spilled their partitions and the probe side is mid-flight.
		if pl.Sink == plan.SinkResult {
			return &failAfterOp{child: op, err: injected, after: 2}
		}
		return op
	}
	before := runtime.NumGoroutine()
	_, err = Run(ds.DB, block, res.Plan, ropts)
	if !errors.Is(err, injected) {
		t.Fatalf("error = %v, want the injected error", err)
	}
	waitGoroutines(t, before)
	assertNoSpillFiles(t, spillRoot)
}

// failAfterOp passes `after` batches through, then fails.
type failAfterOp struct {
	child PhysicalOperator
	err   error
	after int
	seen  int
}

func (o *failAfterOp) Open() error  { return o.child.Open() }
func (o *failAfterOp) Close() error { return o.child.Close() }
func (o *failAfterOp) NextBatch() (*Batch, error) {
	if o.seen >= o.after {
		return nil, o.err
	}
	o.seen++
	return o.child.NextBatch()
}
