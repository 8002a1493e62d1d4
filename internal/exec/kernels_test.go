package exec

import (
	"fmt"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// The hash-kernel suite: the flat hashtab join and aggregation tables
// against the Go-map joins and plain-loop aggregates of the oracle
// (oracle_test.go) — over the TPC-H plans at DOPs that exercise
// partitioned builds with odd partition counts, the streaming aggregation
// sink, and the grace-join spill/reload path.

func TestFlatVsMapKernelsTPCH(t *testing.T) {
	ds := equivalenceDataset(t)
	for _, q := range tpch.All() {
		block, p := optimizeTPCH(t, ds, q.Num, optimizer.BFCBO)
		oc := newOracleCase(t, ds.DB, block)
		for _, dop := range []int{2, 3} {
			r, err := Run(ds.DB, block, p, Options{DOP: dop})
			if err != nil {
				t.Fatalf("Q%d dop %d: %v", q.Num, dop, err)
			}
			oc.check(t, label(q.Num, optimizer.BFCBO, dop), p, r)
		}
	}
}

// The streaming aggregation sink's flat group tables over a
// high-cardinality key (5000 groups, every worker holding most of them),
// which drives the sharded parallel merge: group counts match the oracle
// exactly, float sums bit for bit at DOP 1, where one worker folds rows
// in the oracle's order, and to within rounding at DOP 4, where the
// per-worker partials depend on which worker claimed which morsel.
func TestFlatVsMapKernelsAggregation(t *testing.T) {
	const n, groups = 20_000, 5000
	g := make([]string, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := range g {
		g[i] = fmt.Sprintf("k%d", (i*7919)%groups)
		price[i] = float64(1+i%97) * 1.25
		disc[i] = float64(i%10) / 100
	}
	tbl, err := storage.NewTable("hcard", []storage.Column{
		{Name: "g", Kind: catalog.String, Strings: g},
		{Name: "p", Kind: catalog.Float64, Floats: price},
		{Name: "d", Kind: catalog.Float64, Floats: disc},
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
		Name:      "hcard",
		Relations: []query.Relation{{Alias: "t", Table: schema.MustTable("hcard")}},
	}
	p := &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "t", Table: "hcard"}}
	oc := newOracleCase(t, db, b)
	specs := []AggSpec{
		{Kind: AggCountStar},
		{Kind: AggGroupCount, KeyRel: 0, KeyCol: "g", EstGroups: groups},
		{Kind: AggGroupRevenue, KeyRel: 0, KeyCol: "g", Rel: 0, PriceCol: "p", DiscCol: "d"},
	}
	for _, dop := range []int{1, 4} {
		for _, morsel := range []int{16, 0} {
			r, err := Run(db, b, p, Options{DOP: dop, MorselSize: morsel, Aggregates: specs})
			if err != nil {
				t.Fatal(err)
			}
			oc.checkAggs(t, fmt.Sprintf("dop %d morsel %d", dop, morsel), specs, r, dop == 1)
		}
	}
}

// A group column whose literal value is "<null>" must merge with the
// null-extended rows' group: the interning dictionary maps the literal
// string to the null code, so both report under the one "<null>" key.
func TestFlatKernelsLiteralNullGroup(t *testing.T) {
	db := storage.NewDatabase()
	fact, err := storage.NewTable("nfact", []storage.Column{
		{Name: "fk", Kind: catalog.Int64, Ints: []int64{0, 0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := storage.NewTable("ndim", []storage.Column{
		{Name: "pk", Kind: catalog.Int64, Ints: []int64{0, 1}},
		{Name: "tag", Kind: catalog.String, Strings: []string{"<null>", "DE"}},
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
		Name: "nullgroup",
		Relations: []query.Relation{
			{Alias: "f", Table: schema.MustTable("nfact")},
			{Alias: "d", Table: schema.MustTable("ndim")},
		},
		Clauses: []query.JoinClause{
			// Left join: fk=2 has no dim match and null-extends.
			{Type: query.Left, LeftRel: 0, LeftCol: "fk", RightRel: 1, RightCol: "pk", SubRels: query.NewRelSet(1)},
		},
	}
	p := &plan.Plan{Root: &plan.Join{
		Method: plan.HashJoin, JoinType: query.Left,
		Outer: &plan.Scan{Rel: 0, Alias: "f", Table: "nfact"},
		Inner: &plan.Scan{Rel: 1, Alias: "d", Table: "ndim"},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
	}}
	specs := []AggSpec{{Kind: AggGroupCount, KeyRel: 1, KeyCol: "tag"}}
	r, err := Run(db, b, p, Options{DOP: 2, Aggregates: specs})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Aggregates[0].Groups
	// Two rows hit tag "<null>", one hits "DE", one null-extends.
	if got["<null>"] != 3 || got["DE"] != 1 || len(got) != 2 {
		t.Fatalf("groups = %v, want map[<null>:3 DE:1]", got)
	}
	newOracleCase(t, db, b).checkAggs(t, "literal null", specs, r, false)
}

// The grace hash join reloads spilled partitions through the same build
// kernel as the in-memory path; a tiny budget forces every join of the
// NoBF plans through spill/reload, and results must match the oracle. CI
// runs this under -race, covering concurrent routing, the writer barrier,
// and the per-worker drains over the flat tables.
func TestFlatVsMapKernelsGrace(t *testing.T) {
	ds := equivalenceDataset(t)
	spillRoot := t.TempDir()
	for _, num := range []int{5, 12, 21} {
		block, p := optimizeTPCH(t, ds, num, optimizer.NoBF)
		oc := newOracleCase(t, ds.DB, block)
		for _, dop := range []int{1, 4} {
			r, err := Run(ds.DB, block, p, Options{
				DOP: dop, MemBudget: tinyBudget, SpillDir: spillRoot})
			if err != nil {
				t.Fatalf("Q%d dop %d: grace: %v", num, dop, err)
			}
			if r.TotalSpill().Bytes == 0 {
				t.Fatalf("Q%d dop %d: tiny budget did not spill", num, dop)
			}
			oc.check(t, label(num, optimizer.NoBF, dop)+" budgeted", p, r)
		}
	}
	assertNoSpillFiles(t, spillRoot)
}
