package exec

import (
	"math"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/hashtab"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// aggFixture is items ⟕ names on items.fk = names.pk, whose result rows are
// (item0, FR), (item1, DE), (item2, FR) and one null-extended (item3, -):
// small enough that every aggregate's answer is computed by hand below.
func aggFixture(t *testing.T) (*storage.Database, *query.Block, *plan.Plan) {
	t.Helper()
	db := storage.NewDatabase()
	items, err := storage.NewTable("items", []storage.Column{
		{Name: "fk", Kind: catalog.Int64, Ints: []int64{0, 1, 0, 9}},
		{Name: "price", Kind: catalog.Float64, Floats: []float64{100, 200, 300, 100}},
		{Name: "disc", Kind: catalog.Float64, Floats: []float64{0.1, 0.5, 0, 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	names, err := storage.NewTable("names", []storage.Column{
		{Name: "pk", Kind: catalog.Int64, Ints: []int64{0, 1}},
		{Name: "tag", Kind: catalog.String, Strings: []string{"FR", "DE"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema()
	for _, tb := range []*storage.Table{items, names} {
		if err := db.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		if err := schema.AddTable(storage.Analyze(tb)); err != nil {
			t.Fatal(err)
		}
	}
	b := &query.Block{
		Name: "aggfix",
		Relations: []query.Relation{
			{Alias: "i", Table: schema.MustTable("items")},
			{Alias: "n", Table: schema.MustTable("names")},
		},
		Clauses: []query.JoinClause{
			{Type: query.Left, LeftRel: 0, LeftCol: "fk", RightRel: 1, RightCol: "pk", SubRels: query.NewRelSet(1)},
		},
	}
	p := &plan.Plan{Root: &plan.Join{
		Method: plan.HashJoin, JoinType: query.Left,
		Outer: &plan.Scan{Rel: 0, Alias: "i", Table: "items"},
		Inner: &plan.Scan{Rel: 1, Alias: "n", Table: "names"},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
	}}
	return db, b, p
}

// runAgg runs the fixture with one aggregate spec at DOP 2.
func runAgg(t *testing.T, spec AggSpec) (AggValue, error) {
	t.Helper()
	db, b, p := aggFixture(t)
	r, err := Run(db, b, p, Options{DOP: 2, MorselSize: 1, Aggregates: []AggSpec{spec}})
	if err != nil {
		return AggValue{}, err
	}
	return r.Aggregates[0], nil
}

func TestSumFloat(t *testing.T) {
	got, err := runAgg(t, AggSpec{Kind: AggSum, Rel: 0, Col: "price"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Sum != 100+200+300+100 {
		t.Fatalf("sum(price) = %v", got.Sum)
	}
	if _, err := runAgg(t, AggSpec{Kind: AggSum, Rel: 0, Col: "ghost"}); err == nil {
		t.Fatal("missing column should error")
	}
}

func TestSumRevenue(t *testing.T) {
	got, err := runAgg(t, AggSpec{Kind: AggRevenue, Rel: 0, PriceCol: "price", DiscCol: "disc"})
	if err != nil {
		t.Fatal(err)
	}
	want := 90.0 + 100 + 300 + 90
	if math.Abs(got.Sum-want) > 1e-9 {
		t.Fatalf("revenue = %v, want %v", got.Sum, want)
	}
}

func TestGroupCount(t *testing.T) {
	got, err := runAgg(t, AggSpec{Kind: AggGroupCount, KeyRel: 1, KeyCol: "tag"})
	if err != nil {
		t.Fatal(err)
	}
	g := got.Groups
	if len(g) != 3 || g["FR"] != 2 || g["DE"] != 1 || g["<null>"] != 1 {
		t.Fatalf("group count = %v", g)
	}
	// Non-string column rejected.
	if _, err := runAgg(t, AggSpec{Kind: AggGroupCount, KeyRel: 0, KeyCol: "price"}); err == nil {
		t.Fatal("group count on a float column should error")
	}
}

// The sharded group merge must produce exactly the serial merge's result —
// including bit-identical float sums, since per-key addition order is
// ascending worker in both paths.
func TestMergeGroupsParMatchesSerial(t *testing.T) {
	const workers, keys = 8, 40_000
	parts := make([]*hashtab.AggTable, workers)
	for w := range parts {
		parts[w] = hashtab.NewAgg(keys)
		for k := 0; k < keys; k++ {
			if (k+w)%3 == 0 {
				continue // uneven coverage across workers
			}
			parts[w].Add(int64(k), int64(w+1), 0.1*float64(k)+float64(w)*1e-7)
		}
	}
	serialCnt := make(map[int64]int64)
	serialSum := make(map[int64]float64)
	for _, p := range parts {
		p.Each(func(k, c int64, sum float64) {
			serialCnt[k] += c
			serialSum[k] += sum
		})
	}
	got := mergeAggTables(parts, 8)
	if got.Len() != len(serialSum) {
		t.Fatalf("merged %d keys, want %d", got.Len(), len(serialSum))
	}
	got.Each(func(k, c int64, sum float64) {
		if c != serialCnt[k] || math.Float64bits(sum) != math.Float64bits(serialSum[k]) {
			t.Fatalf("key %d = (%d, %v), want (%d, %v) (float order must match serial)",
				k, c, sum, serialCnt[k], serialSum[k])
		}
	})
	// The serial small-table path and the nil/empty cases.
	if mergeAggTables([]*hashtab.AggTable{nil, hashtab.NewAgg(4)}, 8) != nil {
		t.Fatal("empty partials should merge to nil")
	}
	a, b := hashtab.NewAgg(4), hashtab.NewAgg(4)
	a.Add(1, 1, 0)
	b.Add(1, 2, 0)
	b.Add(2, 3, 0)
	small := map[int64]int64{}
	mergeAggTables([]*hashtab.AggTable{a, b}, 8).Each(func(k, c int64, _ float64) { small[k] = c })
	if len(small) != 2 || small[1] != 3 || small[2] != 3 {
		t.Fatalf("small merge = %v", small)
	}
}

func TestGroupRevenue(t *testing.T) {
	got, err := runAgg(t, AggSpec{Kind: AggGroupRevenue, KeyRel: 1, KeyCol: "tag",
		Rel: 0, PriceCol: "price", DiscCol: "disc"})
	if err != nil {
		t.Fatal(err)
	}
	g := got.GroupSums
	// The null-extended row has no group key and is skipped.
	if len(g) != 2 || math.Abs(g["FR"]-(90+300)) > 1e-9 || math.Abs(g["DE"]-100) > 1e-9 {
		t.Fatalf("group revenue = %v", g)
	}
	if _, err := runAgg(t, AggSpec{Kind: AggGroupRevenue, KeyRel: 0, KeyCol: "price",
		Rel: 0, PriceCol: "price", DiscCol: "disc"}); err == nil {
		t.Fatal("non-string key should error")
	}
}
