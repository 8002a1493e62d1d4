package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/hashtab"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// The probe/fold suite: the vectorized batch probe and aggregation fold
// against the scalar, row-at-a-time oracle (oracle_test.go) — the
// three-phase probe over every join type, extra non-hash conditions,
// duplicate keys, empty build sides and long runs of empty batches, and
// the vectorized fold including NaN float measures and the dictionary-code
// carry from the scan.

// TestScalarVsVectorProbeRandom is the property suite: randomized join
// inputs — duplicate-heavy and sparse key domains, extra non-hash
// conditions, selective and build-emptying predicates (which drive the
// probe through long runs of empty batches) — across all four join types,
// at DOP 1 and 3.
func TestScalarVsVectorProbeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		nOuter := 1 + rng.Intn(2000)
		nInner := 1 + rng.Intn(400)
		dom := int64(1 + rng.Intn(40)) // small domains force duplicate keys

		ok1 := make([]int64, nOuter)
		ok2 := make([]int64, nOuter)
		for i := range ok1 {
			ok1[i] = rng.Int63n(dom)
			ok2[i] = rng.Int63n(3)
		}
		ik1 := make([]int64, nInner)
		ik2 := make([]int64, nInner)
		for i := range ik1 {
			ik1[i] = rng.Int63n(dom)
			ik2[i] = rng.Int63n(3)
		}
		db := storage.NewDatabase()
		schema := catalog.NewSchema()
		outer, err := storage.NewTable("po", []storage.Column{
			{Name: "k1", Kind: catalog.Int64, Ints: ok1},
			{Name: "k2", Kind: catalog.Int64, Ints: ok2},
		})
		if err != nil {
			t.Fatal(err)
		}
		inner, err := storage.NewTable("pi", []storage.Column{
			{Name: "k1", Kind: catalog.Int64, Ints: ik1},
			{Name: "k2", Kind: catalog.Int64, Ints: ik2},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range []*storage.Table{outer, inner} {
			if err := db.AddTable(tb); err != nil {
				t.Fatal(err)
			}
			if err := schema.AddTable(storage.Analyze(tb)); err != nil {
				t.Fatal(err)
			}
		}

		// Predicates: sometimes none, sometimes selective, sometimes
		// emptying a whole side (an empty build side or an all-filtered
		// probe side is a valid, interesting batch stream).
		var innerPred, outerPred query.Predicate
		switch rng.Intn(4) {
		case 0:
			innerPred = query.CmpInt{Col: "k1", Op: query.LT, Val: 0}
		case 1:
			innerPred = query.CmpInt{Col: "k1", Op: query.LT, Val: dom / 2}
		}
		if rng.Intn(4) == 0 {
			outerPred = query.CmpInt{Col: "k1", Op: query.LT, Val: dom / 3}
		}
		extra := trial%2 == 0
		morsel := []int{0, 64, 257}[trial%3]

		for _, jt := range []query.JoinType{query.Inner, query.Left, query.Semi, query.Anti} {
			clauses := []query.JoinClause{
				{Type: jt, LeftRel: 0, LeftCol: "k1", RightRel: 1, RightCol: "k1"},
			}
			conds := []plan.Cond{{OuterRel: 0, OuterCol: "k1", InnerRel: 1, InnerCol: "k1"}}
			if jt != query.Inner {
				clauses[0].SubRels = query.NewRelSet(1)
			}
			if extra {
				// A second, non-hash condition of the same join.
				clauses = append(clauses, query.JoinClause{Type: query.Inner, LeftRel: 0, LeftCol: "k2", RightRel: 1, RightCol: "k2"})
				conds = append(conds, plan.Cond{OuterRel: 0, OuterCol: "k2", InnerRel: 1, InnerCol: "k2"})
			}
			b := &query.Block{
				Name: "prop",
				Relations: []query.Relation{
					{Alias: "o", Table: schema.MustTable("po"), Pred: outerPred},
					{Alias: "i", Table: schema.MustTable("pi"), Pred: innerPred},
				},
				Clauses: clauses,
			}
			p := &plan.Plan{Root: &plan.Join{
				Method: plan.HashJoin, JoinType: jt,
				Outer: &plan.Scan{Rel: 0, Alias: "o", Table: "po", Pred: outerPred},
				Inner: &plan.Scan{Rel: 1, Alias: "i", Table: "pi", Pred: innerPred},
				Conds: conds,
			}}
			oc := newOracleCase(t, db, b)
			for _, dop := range []int{1, 3} {
				r, err := Run(db, b, p, Options{DOP: dop, MorselSize: morsel})
				if err != nil {
					t.Fatalf("trial %d %s dop %d: %v", trial, jt, dop, err)
				}
				oc.check(t, fmt.Sprintf("trial %d %s dop %d", trial, jt, dop), p, r)
			}
		}
	}
}

// The TPC-H plans with every batch small: BF-Post plans at DOP 4 with
// 64-row morsels push many short batches through each probe.
func TestScalarVsVectorProbeTPCH(t *testing.T) {
	ds := equivalenceDataset(t)
	for _, q := range tpch.All() {
		block, p := optimizeTPCH(t, ds, q.Num, optimizer.BFPost)
		r, err := Run(ds.DB, block, p, Options{DOP: 4, MorselSize: 64})
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		newOracleCase(t, ds.DB, block).check(t, label(q.Num, optimizer.BFPost, 4)+" morsel 64", p, r)
	}
}

// The grace spill-reload path probes reloaded partition chunks through the
// same batch kernel; a tiny budget forces every join of the BF-Post plans
// through spill/reload at DOPs 2 and 3, and results must match the oracle.
func TestScalarVsVectorProbeGrace(t *testing.T) {
	ds := equivalenceDataset(t)
	spillRoot := t.TempDir()
	for _, num := range []int{5, 12, 21} {
		block, p := optimizeTPCH(t, ds, num, optimizer.BFPost)
		oc := newOracleCase(t, ds.DB, block)
		for _, dop := range []int{2, 3} {
			r, err := Run(ds.DB, block, p, Options{
				DOP: dop, MemBudget: tinyBudget, SpillDir: spillRoot})
			if err != nil {
				t.Fatalf("Q%d dop %d: grace: %v", num, dop, err)
			}
			if r.TotalSpill().Bytes == 0 {
				t.Fatalf("Q%d dop %d: tiny budget did not spill", num, dop)
			}
			oc.check(t, label(num, optimizer.BFPost, dop)+" budgeted", p, r)
		}
	}
	assertNoSpillFiles(t, spillRoot)
}

// A Bloom-filtered probe-spine scan shares its hash work with the join:
// the run must report carried hashes, and carrying must not change
// results.
func TestProbeHashCarry(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Inner)
	_, vec := optimizeAndRun(t, db, b, optimizer.BFCBO, 2)
	var reused int64
	for _, st := range vec.OpStats {
		reused += st.HashReusedKeys
	}
	if reused == 0 {
		t.Fatalf("no probe hashes carried from the Bloom-filtered scan: %+v", vec.OpStats)
	}
}

// The fold over a left join's probe output, where four in ten fact rows
// find no dimension row (the fixture's dimension filter keeps pk < 6) and
// arrive null-extended: group counts must file them under "<null>" and
// group sums must skip them, matching the oracle bit for bit at DOP 1,
// where one worker folds in the oracle's row order, and to within
// rounding at DOP 4, where per-worker partials add in a schedule-dependent
// order.
func TestScalarVsVectorFoldAggregates(t *testing.T) {
	db, b, p := aggBlockFixture(t)
	b.Clauses[0].Type, b.Clauses[0].SubRels = query.Left, query.NewRelSet(1)
	p.Root.(*plan.Join).JoinType = query.Left
	oc := newOracleCase(t, db, b)
	specs := []AggSpec{
		{Kind: AggCountStar},
		{Kind: AggSum, Rel: 0, Col: "price"},
		{Kind: AggGroupCount, KeyRel: 1, KeyCol: "name", EstGroups: 8},
		{Kind: AggGroupRevenue, KeyRel: 1, KeyCol: "name", Rel: 0, PriceCol: "price", DiscCol: "disc"},
	}
	for _, dop := range []int{1, 4} {
		for _, morsel := range []int{16, 0} {
			r, err := Run(db, b, p, Options{DOP: dop, MorselSize: morsel, Aggregates: specs})
			if err != nil {
				t.Fatal(err)
			}
			if r.Aggregates[2].Groups["<null>"] != 200 {
				t.Fatalf("dop %d morsel %d: null-extended group = %d, want 200",
					dop, morsel, r.Aggregates[2].Groups["<null>"])
			}
			oc.checkAggs(t, fmt.Sprintf("dop %d morsel %d", dop, morsel), specs, r, dop == 1)
		}
	}
}

// Scan-produced dictionary codes must ride the batch into the fold when
// the group key column is on the probe spine — and the carried codes must
// not change any group result. Group sums are bitwise equal to the
// oracle's at DOP 1 only: at DOP 2 the two workers claim morsels in a
// schedule-dependent order, so their partial sums round differently from
// run to run.
func TestFoldDictCarryFromScan(t *testing.T) {
	const n = 4000
	g := make([]string, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := range g {
		g[i] = fmt.Sprintf("g%d", i%8)
		price[i] = float64(100 + i%50)
		disc[i] = float64(i%4) / 10
	}
	tbl, err := storage.NewTable("dcarry", []storage.Column{
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
		Name:      "dictcarry",
		Relations: []query.Relation{{Alias: "t", Table: schema.MustTable("dcarry")}},
	}
	p := &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "t", Table: "dcarry"}}
	specs := []AggSpec{
		{Kind: AggGroupCount, KeyRel: 0, KeyCol: "g"},
		{Kind: AggGroupRevenue, KeyRel: 0, KeyCol: "g", Rel: 0, PriceCol: "p", DiscCol: "d"},
	}
	oc := newOracleCase(t, db, b)
	for _, dop := range []int{1, 2} {
		r, err := Run(db, b, p, Options{DOP: dop, MorselSize: 256, Aggregates: specs})
		if err != nil {
			t.Fatal(err)
		}
		var carried int64
		for _, ps := range r.Pipelines {
			carried += ps.FoldCodeReused
		}
		if carried == 0 {
			t.Fatalf("dop %d: no fold codes carried from the scan dictionary: %+v", dop, r.Pipelines)
		}
		oc.checkAggs(t, fmt.Sprintf("dop %d", dop), specs, r, dop == 1)
		if r.Aggregates[0].Groups["g0"] != n/8 {
			t.Fatalf("group g0 = %d, want %d", r.Aggregates[0].Groups["g0"], n/8)
		}
	}
}

// NaN measures: the fold must propagate NaN into exactly the poisoned
// group's sum and the total, matching the oracle bit for bit at DOP 1 and
// with NaN equal to NaN at DOP 4.
func TestFoldNaNMeasures(t *testing.T) {
	const n = 2000
	g := make([]string, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := range g {
		g[i] = fmt.Sprintf("g%d", i%5)
		price[i] = math.Pow(2, float64(i%10))
		if i%5 == 3 && i%7 == 0 {
			price[i] = math.NaN()
		}
	}
	tbl, err := storage.NewTable("nanf", []storage.Column{
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
		Name:      "nan",
		Relations: []query.Relation{{Alias: "t", Table: schema.MustTable("nanf")}},
	}
	p := &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "t", Table: "nanf"}}
	specs := []AggSpec{
		{Kind: AggSum, Rel: 0, Col: "p"},
		{Kind: AggGroupRevenue, KeyRel: 0, KeyCol: "g", Rel: 0, PriceCol: "p", DiscCol: "d"},
	}
	oc := newOracleCase(t, db, b)
	for _, dop := range []int{1, 4} {
		r, err := Run(db, b, p, Options{DOP: dop, MorselSize: 64, Aggregates: specs})
		if err != nil {
			t.Fatal(err)
		}
		oc.checkAggs(t, fmt.Sprintf("dop %d", dop), specs, r, dop == 1)
		vg := r.Aggregates[1].GroupSums
		if !math.IsNaN(vg["g3"]) {
			t.Fatalf("dop %d: poisoned group g3 = %v, want NaN", dop, vg["g3"])
		}
		for k, sum := range vg {
			if k != "g3" && math.IsNaN(sum) {
				t.Fatalf("dop %d: NaN leaked into group %q", dop, k)
			}
		}
	}
}

// benchProbeFixture builds a standalone probe kernel: a 1024-row build
// side keyed over 512 distinct values and a 1024-row probe batch, the
// steady-state shape the CI 0-allocs gate measures.
func benchProbeFixture(extras bool) (*probeShared, *hashTable, *Batch, *probeScratch) {
	const nBuild, nProbe = 1024, 1024
	innerRS := NewRowSet(query.NewRelSet(1))
	ids := make([]int32, nBuild)
	buildKeys := make([]int64, nBuild)
	for i := range ids {
		ids[i] = int32(i)
		buildKeys[i] = int64(i % 512)
	}
	innerRS.cols[0] = ids
	hashes := hashtab.HashVec(buildKeys, nil)
	tab, err := hashtab.Build(buildKeys, hashes, nil)
	if err != nil {
		panic(err)
	}
	ht := &hashTable{inner: innerRS, innerKeys: buildKeys, tabs: []*hashtab.JoinTable{tab}}
	conds := []plan.Cond{{OuterRel: 0, OuterCol: "k", InnerRel: 1, InnerCol: "k"}}
	outerKeys := make([]int64, nProbe)
	for i := range outerKeys {
		outerKeys[i] = int64(i % 600) // ~85% hit rate
	}
	sh := &probeShared{
		j:         &plan.Join{Method: plan.HashJoin, JoinType: query.Inner, Conds: conds},
		ht:        ht,
		outRels:   query.NewRelSet(0, 1),
		outerVals: [][]int64{outerKeys},
		outerRels: []int{0},
		stats:     &opStats{},
	}
	if extras {
		extraOuter := make([]int64, nProbe)
		extraInner := make([]int64, nBuild)
		for i := range extraOuter {
			extraOuter[i] = int64(i % 2)
		}
		for i := range extraInner {
			extraInner[i] = int64(i % 2)
		}
		sh.j.Conds = append(sh.j.Conds, plan.Cond{OuterRel: 0, OuterCol: "e", InnerRel: 1, InnerCol: "e"})
		sh.outerVals = append(sh.outerVals, extraOuter)
		sh.outerRels = append(sh.outerRels, 0)
		ht.innerExtras = [][]int64{extraInner}
	}
	sh.wiring = newColWiring(sh.outRels, query.NewRelSet(0), query.NewRelSet(1))
	inRS := NewRowSet(query.NewRelSet(0))
	col := make([]int32, nProbe)
	for i := range col {
		col[i] = int32(i)
	}
	inRS.cols[0] = col
	return sh, ht, &Batch{rows: inRS}, &probeScratch{}
}

// BenchmarkProbeBatch measures the steady-state vectorized probe kernel.
// CI gates on 0 allocs/op: the per-worker scratch must absorb every
// batch after warm-up.
func BenchmarkProbeBatch(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		extras bool
	}{{"hash-only", false}, {"extra-cond", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			sh, ht, in, scr := benchProbeFixture(cfg.extras)
			if out := sh.probeBatch(ht, in, scr); out.Len() == 0 {
				b.Fatal("probe produced no rows")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := sh.probeBatch(ht, in, scr)
				if out.Len() == 0 {
					b.Fatal("probe produced no rows")
				}
			}
		})
	}
}

// BenchmarkAggFold measures the steady-state vectorized group fold. CI
// gates on 0 allocs/op once the partial's table and the fold scratch are
// warm.
func BenchmarkAggFold(b *testing.B) {
	const n, groups = 1024, 16
	names := make([]string, groups)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
	}
	codes := make([]int32, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := 0; i < n; i++ {
		codes[i] = int32(i % groups)
		price[i] = float64(100 + i)
		disc[i] = float64(i%5) / 10
	}
	rs := NewRowSet(query.NewRelSet(0))
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	rs.cols[0] = ids
	batch := &Batch{rows: rs}
	dict := &groupDict{names: names, codes: codes}
	for _, cfg := range []struct {
		name string
		spec AggSpec
	}{
		{"group-count", AggSpec{Kind: AggGroupCount, KeyRel: 0, KeyCol: "g"}},
		{"group-revenue", AggSpec{Kind: AggGroupRevenue, KeyRel: 0, KeyCol: "g", Rel: 0, PriceCol: "p", DiscCol: "d"}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			a := &aggCols{spec: cfg.spec, price: price, disc: disc, dict: dict}
			p := &aggPartial{}
			scr := &aggScratch{}
			a.foldBatch(p, batch, scr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.foldBatch(p, batch, scr)
			}
		})
	}
}
