package exec

import (
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// mergeBenchFixture builds two tables joined on a shared key domain, sized
// so the sort dominates — the hot path the concrete-pair sortByKey targets.
func mergeBenchFixture(b *testing.B, nOuter, nInner int) (*storage.Database, *query.Block, *plan.Plan) {
	b.Helper()
	db := storage.NewDatabase()
	mk := func(name string, n, dom int) *storage.Table {
		keys := make([]int64, n)
		x := uint64(88172645463325252)
		for i := range keys {
			// xorshift keeps generation off the measured path and deterministic.
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = int64(x % uint64(dom))
		}
		tb, err := storage.NewTable(name, []storage.Column{{Name: "k", Kind: catalog.Int64, Ints: keys}})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddTable(tb); err != nil {
			b.Fatal(err)
		}
		return tb
	}
	o := mk("mo", nOuter, nOuter)
	in := mk("mi", nInner, nOuter)
	schema := catalog.NewSchema()
	if err := schema.AddTable(storage.Analyze(o)); err != nil {
		b.Fatal(err)
	}
	if err := schema.AddTable(storage.Analyze(in)); err != nil {
		b.Fatal(err)
	}
	blk := &query.Block{
		Name: "mb",
		Relations: []query.Relation{
			{Alias: "o", Table: schema.MustTable("mo")},
			{Alias: "i", Table: schema.MustTable("mi")},
		},
		Clauses: []query.JoinClause{{Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k"}},
	}
	root := &plan.Join{
		Method: plan.MergeJoin, JoinType: query.Inner,
		Outer: &plan.Scan{Rel: 0, Alias: "o", Table: "mo"},
		Inner: &plan.Scan{Rel: 1, Alias: "i", Table: "mi"},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "k", InnerRel: 1, InnerCol: "k"}},
	}
	return db, blk, &plan.Plan{Root: root}
}

func BenchmarkMergeJoin(b *testing.B) {
	db, blk, p := mergeBenchFixture(b, 200_000, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(db, blk, p, Options{DOP: 4})
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows == 0 {
			b.Fatal("merge join produced no rows")
		}
	}
}

// BenchmarkMergeJoinSort isolates sortByKey, the merge join's hot path.
func BenchmarkMergeJoinSort(b *testing.B) {
	keys := make([]int64, 500_000)
	x := uint64(2463534242)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = int64(x % 1_000_000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sortByKey(keys); len(got) != len(keys) {
			b.Fatal("bad sort")
		}
	}
}
