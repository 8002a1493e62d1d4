package exec

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// The executor-equivalence suite: for every built-in TPC-H query under all
// four optimizer modes, at DOP 1 and 4, the executor's result must match
// the oracle (oracle_test.go) tuple for tuple, every scan and inner-only
// join must report the row count the oracle computes for its relations,
// and every Bloom filter must pass no more rows than it tested.

var (
	eqOnce sync.Once
	eqDS   *datagen.Dataset
	eqErr  error
)

func equivalenceDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	eqOnce.Do(func() {
		eqDS, eqErr = datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 71})
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	return eqDS
}

// oracleCase is one block's oracle answer, shared by every plan and run
// configuration that executes the block.
type oracleCase struct {
	o      *oracle
	tuples []oracleTuple
	want   []string // canonical tuples over the visible relations
	counts map[query.RelSet]int
}

func newOracleCase(t *testing.T, db *storage.Database, b *query.Block) *oracleCase {
	t.Helper()
	o, err := newOracle(db, b)
	if err != nil {
		t.Fatalf("%s: oracle: %v", b.Name, err)
	}
	ts, err := o.result()
	if err != nil {
		t.Fatalf("%s: oracle: %v\n%s", b.Name, err, b)
	}
	return &oracleCase{o: o, tuples: ts, want: oracleCanonical(ts, o.hidden()),
		counts: make(map[query.RelSet]int)}
}

// count is the oracle's row count for an inner-only node over set.
func (oc *oracleCase) count(t *testing.T, set query.RelSet) int {
	t.Helper()
	if n, ok := oc.counts[set]; ok {
		return n
	}
	n, err := oc.o.count(uint64(set))
	if err != nil {
		t.Fatalf("oracle count of %s: %v", set, err)
	}
	oc.counts[set] = n
	return n
}

// check compares one run of plan p against the oracle: the result tuples
// (when the run materialized them), the row count, each scan's and each
// inner-only join's actual, and the Bloom filter tallies.
func (oc *oracleCase) check(t *testing.T, label string, p *plan.Plan, r *Result) {
	t.Helper()
	if r.Rows != len(oc.tuples) {
		t.Errorf("%s: rows = %d, oracle %d", label, r.Rows, len(oc.tuples))
	}
	if r.Out != nil {
		got := canonicalRows(r.Out, phantomRels(p))
		if len(got) != len(oc.want) {
			t.Errorf("%s: %d tuples, oracle %d", label, len(got), len(oc.want))
		} else {
			for i := range got {
				if got[i] != oc.want[i] {
					t.Errorf("%s: tuple %d = %q, oracle %q", label, i, got[i], oc.want[i])
					break
				}
			}
		}
	}
	oc.checkActuals(t, label, p.Root, r)
	for _, bs := range r.BloomStats {
		if bs.Passed < 0 || bs.Passed > bs.Tested {
			t.Errorf("%s: bloom %d passed %d of %d tested", label, bs.ID, bs.Passed, bs.Tested)
		}
	}
}

// checkActuals walks the plan below n. A scan or inner-only join must
// report exactly the oracle's row count for its relations when no Bloom
// filter applies beneath it, and at most that count when one does (a
// filter only drops rows that would find no partner). It returns whether
// n's subtree is inner-only and whether it applies a Bloom filter.
func (oc *oracleCase) checkActuals(t *testing.T, label string, n plan.Node, r *Result) (innerOnly, filtered bool) {
	t.Helper()
	switch x := n.(type) {
	case *plan.Scan:
		innerOnly, filtered = true, len(x.ApplyBlooms) > 0
	case *plan.Join:
		oi, of := oc.checkActuals(t, label, x.Outer, r)
		ii, inf := oc.checkActuals(t, label, x.Inner, r)
		innerOnly, filtered = oi && ii && x.JoinType == query.Inner, of || inf
	}
	if !innerOnly {
		return false, filtered
	}
	got, want := r.ActualFor(n), float64(oc.count(t, n.Rels()))
	if (!filtered && got != want) || (filtered && got > want) || got < 0 {
		t.Errorf("%s: node %s actual %v, oracle %v (Bloom-filtered below: %v)",
			label, n.Rels(), got, want, filtered)
	}
	return true, filtered
}

// checkAggs compares a run's aggregates with the oracle's. Counts match
// exactly; float sums match bitwise when bitwise is set, else to within a
// relative 1e-9 of the summed term magnitudes (NaN equals NaN).
func (oc *oracleCase) checkAggs(t *testing.T, label string, specs []AggSpec, r *Result, bitwise bool) {
	t.Helper()
	want, err := oc.o.aggregate(oc.tuples, specs)
	if err != nil {
		t.Fatalf("%s: oracle aggregate: %v", label, err)
	}
	if len(r.Aggregates) != len(specs) {
		t.Fatalf("%s: %d aggregates, want %d", label, len(r.Aggregates), len(specs))
	}
	for i, s := range specs {
		g, w := r.Aggregates[i], want[i]
		switch s.Kind {
		case AggCountStar:
			if g.Count != w.Count {
				t.Errorf("%s: spec %d count = %d, oracle %d", label, i, g.Count, w.Count)
			}
		case AggSum, AggRevenue:
			if !sameSum(g.Sum, w.Sum, w.Abs, bitwise) {
				t.Errorf("%s: spec %d sum = %v, oracle %v", label, i, g.Sum, w.Sum)
			}
		case AggGroupCount:
			if len(g.Groups) != len(w.Groups) {
				t.Errorf("%s: spec %d: %d groups, oracle %d: %v vs %v", label, i, len(g.Groups), len(w.Groups), g.Groups, w.Groups)
			}
			for k, n := range w.Groups {
				if g.Groups[k] != n {
					t.Errorf("%s: spec %d group %q = %d, oracle %d", label, i, k, g.Groups[k], n)
				}
			}
		case AggGroupRevenue:
			if len(g.GroupSums) != len(w.GroupSums) {
				t.Errorf("%s: spec %d: %d groups, oracle %d: %v vs %v", label, i, len(g.GroupSums), len(w.GroupSums), g.GroupSums, w.GroupSums)
			}
			for k, sum := range w.GroupSums {
				got, ok := g.GroupSums[k]
				if !ok || !sameSum(got, sum, w.GroupAbs[k], bitwise) {
					t.Errorf("%s: spec %d group %q sum = %v, oracle %v", label, i, k, got, sum)
				}
			}
		}
	}
}

// sameSum reports whether an executor float sum matches the oracle's:
// bit for bit, or within 1e-9 of scale (the sum of the term magnitudes),
// with NaN equal to NaN.
func sameSum(got, want, scale float64, bitwise bool) bool {
	if bitwise {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	return math.Abs(got-want) <= 1e-9*scale
}

// optimizeTPCH plans TPC-H query num over the equivalence dataset.
func optimizeTPCH(t *testing.T, ds *datagen.Dataset, num int, mode optimizer.Mode) (*query.Block, *plan.Plan) {
	t.Helper()
	q, ok := tpch.Get(num)
	if !ok {
		t.Fatalf("unknown TPC-H query %d", num)
	}
	block := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = mode
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatalf("Q%d %s: optimize: %v", num, mode, err)
	}
	return block, res.Plan
}

func TestExecutorEquivalenceTPCH(t *testing.T) {
	ds := equivalenceDataset(t)
	modes := []optimizer.Mode{optimizer.NoBF, optimizer.BFPost, optimizer.BFCBO, optimizer.Naive}
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		var oc *oracleCase
		for _, mode := range modes {
			opts := optimizer.DefaultOptions(0.01)
			opts.Mode = mode
			if mode == optimizer.Naive {
				// The naive strawman's search space explodes on the wider
				// queries; a capped search that aborts is not an executor
				// concern, so those cells are skipped.
				opts.MaxPlansPerSet = 50_000
			}
			res, err := optimizer.Optimize(block, opts)
			if err == optimizer.ErrSearchSpaceExceeded {
				continue
			}
			if err != nil {
				t.Fatalf("Q%d %s: optimize: %v", q.Num, mode, err)
			}
			if oc == nil {
				oc = newOracleCase(t, ds.DB, block)
			}
			for _, dop := range []int{1, 4} {
				r, err := Run(ds.DB, block, res.Plan, Options{DOP: dop})
				if err != nil {
					t.Fatalf("Q%d %s dop %d: exec: %v", q.Num, mode, dop, err)
				}
				oc.check(t, label(q.Num, mode, dop), res.Plan, r)
			}
		}
	}
}

func label(num int, mode optimizer.Mode, dop int) string {
	return fmt.Sprintf("Q%d %s dop %d", num, mode, dop)
}

func bloomByID(stats []BloomRuntime) map[int]BloomRuntime {
	m := make(map[int]BloomRuntime, len(stats))
	for _, s := range stats {
		m[s.ID] = s
	}
	return m
}
