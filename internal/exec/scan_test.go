package exec

import (
	"fmt"
	"strings"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// The scan suite: the vectorized kernel-chain scan against the scalar,
// row-at-a-time oracle (oracle_test.go), which evaluates every predicate
// through query.Predicate.Eval — zone-map morsel skipping, adaptive
// predicate reordering, dictionary string compares and batched Bloom
// probes are all pure optimizations, never visible in results or in a
// filter-free scan's row count.

// The TPC-H plans with 1000-row morsels, misaligned with the zone-map
// blocks, so skips straddle partial blocks.
func TestScalarVsVectorScanTPCH(t *testing.T) {
	ds := equivalenceDataset(t)
	for _, q := range tpch.All() {
		block, p := optimizeTPCH(t, ds, q.Num, optimizer.BFCBO)
		oc := newOracleCase(t, ds.DB, block)
		for _, dop := range []int{1, 4} {
			r, err := Run(ds.DB, block, p, Options{DOP: dop, MorselSize: 1000})
			if err != nil {
				t.Fatalf("Q%d dop %d: %v", q.Num, dop, err)
			}
			oc.check(t, label(q.Num, optimizer.BFCBO, dop)+" morsel 1000", p, r)
			if len(r.Scans) != len(p.Scans()) {
				t.Fatalf("Q%d dop %d: %d scan runtimes, want %d",
					q.Num, dop, len(r.Scans), len(p.Scans()))
			}
		}
	}
}

// Morsel-size variation exercises partial morsels, zone-block misalignment
// (morsels smaller and larger than ZoneBlockRows) and chain reorders at
// different batch cadences.
func TestScalarVsVectorScanMorselSizes(t *testing.T) {
	ds := equivalenceDataset(t)
	for _, num := range []int{6, 7} {
		block, p := optimizeTPCH(t, ds, num, optimizer.BFCBO)
		oc := newOracleCase(t, ds.DB, block)
		for _, morsel := range []int{64, 1500, 5000} {
			r, err := Run(ds.DB, block, p, Options{DOP: 2, MorselSize: morsel})
			if err != nil {
				t.Fatalf("Q%d morsel %d: %v", num, morsel, err)
			}
			oc.check(t, fmt.Sprintf("Q%d morsel %d", num, morsel), p, r)
		}
	}
}

// Zone-map skipping on clustered data: a sorted column with a narrow range
// predicate must eliminate most morsels before any row is touched, with
// results identical to the oracle's.
func TestScanZoneMapSkip(t *testing.T) {
	const n = 40 * storage.ZoneBlockRows
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = int64(i)
	}
	tbl, err := storage.NewTable("ztab", []storage.Column{
		{Name: "v", Kind: catalog.Int64, Ints: ints},
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
	pred := query.BetweenInt{Col: "v", Lo: 100, Hi: 300}
	b := &query.Block{
		Name:      "zscan",
		Relations: []query.Relation{{Alias: "z", Table: schema.MustTable("ztab"), Pred: pred}},
	}
	p := &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "z", Table: "ztab", Pred: pred}}
	oc := newOracleCase(t, db, b)
	for _, dop := range []int{1, 4} {
		vec, err := Run(db, b, p, Options{DOP: dop})
		if err != nil {
			t.Fatal(err)
		}
		if vec.Rows != 201 {
			t.Fatalf("dop %d: rows = %d, want 201", dop, vec.Rows)
		}
		oc.check(t, fmt.Sprintf("dop %d", dop), p, vec)
		if len(vec.Scans) != 1 {
			t.Fatalf("dop %d: %d scan runtimes, want 1", dop, len(vec.Scans))
		}
		sc := vec.Scans[0]
		// Rows [100,300] live in the first zone block; every other whole
		// morsel is skippable. Exact counts depend on morsel claiming, but
		// the vast majority of the 40 blocks must be skipped.
		if sc.ZoneSkipped < 30 {
			t.Fatalf("dop %d: only %d morsels zone-skipped (%d rows): %+v",
				dop, sc.ZoneSkipped, sc.ZoneSkippedRows, sc)
		}
		if sc.Morsels == 0 || sc.ZoneSkippedRows == 0 {
			t.Fatalf("dop %d: empty scan counters: %+v", dop, sc)
		}
		if len(sc.Preds) != 1 || sc.Preds[0].Out != 201 {
			t.Fatalf("dop %d: predicate counters %+v, want one kernel with Out=201", dop, sc.Preds)
		}
	}
}

// EXPLAIN surfaces zone-map eligibility at plan time and the skip/
// selectivity counters at run time.
func TestExplainScanCounters(t *testing.T) {
	ds := equivalenceDataset(t)
	q, _ := tpch.Get(6)
	block := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Plan.Explain(); !strings.Contains(s, "zonemap[") {
		t.Fatalf("plan explain missing zonemap annotation:\n%s", s)
	}
	r, err := Run(ds.DB, block, res.Plan, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := r.ExplainAnalyze(res.Plan)
	if !strings.Contains(out, "morsels=") || !strings.Contains(out, "pred ") {
		t.Fatalf("explain analyze missing scan counters:\n%s", out)
	}
}
