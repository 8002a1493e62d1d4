package exec

import (
	"fmt"
	"strings"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/cost"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// The pipelined executor must expose per-operator runtime stats and an
// EXPLAIN ANALYZE rendering with actual rows per node.
func TestPipelinedOpStatsAndExplainAnalyze(t *testing.T) {
	db, schema := fixture(t)
	p, r := optimizeAndRun(t, db, factDimBlock(schema, query.Inner), optimizer.BFCBO, 4)
	if len(r.OpStats) == 0 || len(r.Pipelines) == 0 {
		t.Fatalf("pipelined run recorded no stats: ops=%d pipelines=%d", len(r.OpStats), len(r.Pipelines))
	}
	// The root join's stat must agree with the recorded actual and output.
	root := r.StatFor(p.Root)
	if root == nil {
		t.Fatal("no OpStat for plan root")
	}
	if int(root.RowsOut) != r.Rows || r.Rows != r.Out.Len() {
		t.Fatalf("root stat rows=%d, result rows=%d, out=%d", root.RowsOut, r.Rows, r.Out.Len())
	}
	// Every scan and join node has a stat.
	for _, s := range p.Scans() {
		if r.StatFor(s) == nil {
			t.Fatalf("no OpStat for scan %s", s.Alias)
		}
	}
	ea := r.ExplainAnalyze(p)
	for _, want := range []string{"actual=", "pipelines (", "workers="} {
		if !strings.Contains(ea, want) {
			t.Fatalf("ExplainAnalyze missing %q:\n%s", want, ea)
		}
	}
}

// Tiny morsels force many batches through a scan→probe chain; results must
// not depend on the morsel granularity.
func TestMorselSizeInvariance(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Inner)
	res, err := optimizer.Optimize(b, optimizer.Options{
		Mode: optimizer.BFCBO, Cost: cost.Default(),
		Heuristics: optimizer.Heuristics{H1LargerOnly: true, H2MinApplyRows: 10,
			H3FKLosslessPK: true, H5MaxBuildNDV: 1e9, H6MaxKeepFraction: 0.9},
		MaxPlansPerSet: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, morsel := range []int{1, 7, 64, 100_000} {
		r, err := Run(db, b, res.Plan, Options{DOP: 3, MorselSize: morsel})
		if err != nil {
			t.Fatalf("morsel %d: %v", morsel, err)
		}
		if r.Rows != 100 {
			t.Fatalf("morsel %d: rows = %d, want 100", morsel, r.Rows)
		}
	}
}

// aggBlockFixture builds a fact⋈dim database with float measure columns
// and a string group key, for aggregation tests.
func aggBlockFixture(t *testing.T) (*storage.Database, *query.Block, *plan.Plan) {
	t.Helper()
	db := storage.NewDatabase()
	n := 500
	fk := make([]int64, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := range fk {
		fk[i] = int64(i % 10)
		price[i] = float64(100 + i)
		disc[i] = float64(i%5) / 10
	}
	fact, err := storage.NewTable("afact", []storage.Column{
		{Name: "fk", Kind: catalog.Int64, Ints: fk},
		{Name: "price", Kind: catalog.Float64, Floats: price},
		{Name: "disc", Kind: catalog.Float64, Floats: disc},
	})
	if err != nil {
		t.Fatal(err)
	}
	pk := make([]int64, 10)
	name := make([]string, 10)
	for i := range pk {
		pk[i] = int64(i)
		if i%2 == 0 {
			name[i] = "even"
		} else {
			name[i] = "odd"
		}
	}
	dim, err := storage.NewTable("adim", []storage.Column{
		{Name: "pk", Kind: catalog.Int64, Ints: pk},
		{Name: "name", Kind: catalog.String, Strings: name},
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
		Name: "agg",
		Relations: []query.Relation{
			{Alias: "f", Table: schema.MustTable("afact")},
			{Alias: "d", Table: schema.MustTable("adim"), Pred: query.CmpInt{Col: "pk", Op: query.LT, Val: 6}},
		},
		Clauses: []query.JoinClause{
			{Type: query.Inner, LeftRel: 0, LeftCol: "fk", RightRel: 1, RightCol: "pk"},
		},
	}
	root := &plan.Join{
		Method: plan.HashJoin, JoinType: query.Inner,
		Outer: &plan.Scan{Rel: 0, Alias: "f", Table: "afact"},
		Inner: &plan.Scan{Rel: 1, Alias: "d", Table: "adim", Pred: query.CmpInt{Col: "pk", Op: query.LT, Val: 6}},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
	}
	return db, b, &plan.Plan{Root: root}
}

// The streaming aggregation sink must match the oracle's plain-loop
// aggregates without materializing the final row set.
func TestStreamingAggregationMatchesOracle(t *testing.T) {
	db, b, p := aggBlockFixture(t)
	oc := newOracleCase(t, db, b)
	specs := []AggSpec{
		{Kind: AggCountStar},
		{Kind: AggSum, Rel: 0, Col: "price"},
		{Kind: AggRevenue, Rel: 0, PriceCol: "price", DiscCol: "disc"},
		{Kind: AggGroupCount, KeyRel: 1, KeyCol: "name", EstGroups: 8},
		{Kind: AggGroupRevenue, KeyRel: 1, KeyCol: "name", Rel: 0, PriceCol: "price", DiscCol: "disc"},
	}
	for _, dop := range []int{1, 4} {
		r, err := Run(db, b, p, Options{DOP: dop, Aggregates: specs, MorselSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		if r.Out != nil {
			t.Fatal("streaming aggregation should not materialize the result")
		}
		if r.Rows != len(oc.tuples) {
			t.Fatalf("dop %d: rows = %d, oracle %d", dop, r.Rows, len(oc.tuples))
		}
		oc.checkAggs(t, fmt.Sprintf("dop %d", dop), specs, r, dop == 1)
	}
}

func TestAggregateValidation(t *testing.T) {
	db, b, p := aggBlockFixture(t)
	// A group key must be a string column; grouping by a float fails.
	_, err := Run(db, b, p, Options{DOP: 2,
		Aggregates: []AggSpec{{Kind: AggGroupCount, KeyRel: 0, KeyCol: "price"}}})
	if err == nil {
		t.Fatal("non-string group key should error")
	}
}
