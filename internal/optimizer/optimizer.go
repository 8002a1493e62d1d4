package optimizer

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/stats"
)

// Result is the outcome of one optimization run.
type Result struct {
	Plan *plan.Plan
	// PlanningTime is the wall-clock optimizer latency.
	PlanningTime time.Duration
	// Candidates is the number of Bloom filter candidates marked.
	Candidates int
	// Phase1Pairs counts the ordered join pairs visited by the first
	// bottom-up pass (zero outside BF-CBO).
	Phase1Pairs int
	// PlansKept is the total number of sub-plans retained across all plan
	// lists — the search-space size the paper's heuristics try to bound.
	PlansKept int
}

// ErrSearchSpaceExceeded is returned when a plan list outgrows
// Options.MaxPlansPerSet (realistically only in Naive mode).
var ErrSearchSpaceExceeded = errors.New("optimizer: plan list exceeded MaxPlansPerSet (naive search-space explosion)")

// Optimize plans a single SPJ block under the given options.
func Optimize(b *query.Block, opts Options) (*Result, error) {
	start := time.Now()
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxPlansPerSet <= 0 {
		opts.MaxPlansPerSet = 200_000
	}
	if !opts.Cost.Validate() {
		return nil, fmt.Errorf("optimizer: invalid cost parameters")
	}
	b.AddTransitiveClauses()
	o := &optimizer{
		block: b,
		est:   stats.NewEstimator(b),
		opts:  opts,
		lists: make(map[query.RelSet]*planList),
		specs: make(map[int]plan.BloomSpec),
	}

	res := &Result{}
	switch opts.Mode {
	case BFCBO:
		o.markCandidates()
		o.phase1(res)
		o.applyHeuristic8()
		o.makeBasePlans(true, false)
	case Naive:
		o.markCandidates()
		o.makeBasePlans(false, true)
	default:
		o.makeBasePlans(false, false)
	}
	res.Candidates = len(o.cands)

	if err := o.enumerate(); err != nil {
		return nil, err
	}
	best := o.lists[b.AllRels()].best()
	if best == nil {
		return nil, fmt.Errorf("optimizer: no complete plan found for block %q", b.Name)
	}
	p := &plan.Plan{Root: best.node, Mode: opts.Mode.String()}
	o.collectSpecs(p)

	// §3.7: the post-processing application of Bloom filters is retained
	// for BF-Post (where it is the whole mechanism) and after BF-CBO
	// (where it may add filters costing could not plan, and re-marks the
	// ones costing chose).
	if opts.Mode == BFPost || (opts.Mode == BFCBO && !opts.DisablePostPass) {
		o.postProcess(p)
	}

	for _, l := range o.lists {
		res.PlansKept += l.len()
	}
	res.Plan = p
	res.PlanningTime = time.Since(start)
	p.PlanningTime = res.PlanningTime.Seconds()
	return res, nil
}

type optimizer struct {
	block *query.Block
	est   *stats.Estimator
	opts  Options

	cands  []*candidate
	lists  map[query.RelSet]*planList
	specs  map[int]plan.BloomSpec
	nextID int

	phase1Pairs   int
	joinInputCard float64 // H8 accumulator
}

// ---------------------------------------------------------------------------
// Marking Bloom filter candidates (§3.3)

// markCandidates attaches Bloom filter candidates to base relations based on
// the block's hashable join clauses, applying H1/H2/H9 and the outer/anti
// join correctness restrictions.
func (o *optimizer) markCandidates() {
	h := o.opts.Heuristics
	seen := make(map[[2]int]map[[2]string]bool)
	add := func(applyRel int, applyCol string, buildRel int, buildCol string, jt query.JoinType, fromH9 bool) {
		if h.H2MinApplyRows > 0 && o.est.BaseRows(applyRel) <= h.H2MinApplyRows {
			return
		}
		if o.crossesOuterUnit(applyRel, buildRel) {
			return
		}
		rk := [2]int{applyRel, buildRel}
		ck := [2]string{applyCol, buildCol}
		if seen[rk] == nil {
			seen[rk] = make(map[[2]string]bool)
		}
		if seen[rk][ck] {
			return
		}
		seen[rk][ck] = true
		o.cands = append(o.cands, &candidate{
			id:       len(o.cands),
			applyRel: applyRel, applyCol: applyCol,
			buildRel: buildRel, buildCol: buildCol,
			clauseType: jt, fromH9: fromH9,
		})
	}

	// Group inner-clause endpoints into equivalence classes to honour the
	// multi-way rule: "we only consider building a Bloom filter from the
	// smallest table and applying it to the larger tables" (§3.3).
	classes := o.equivalenceClasses()
	inMultiway := make(map[string]bool)
	for _, cls := range classes {
		if len(cls) < 3 {
			continue
		}
		smallest := cls[0]
		for _, e := range cls[1:] {
			if o.est.BaseRows(e.rel) < o.est.BaseRows(smallest.rel) {
				smallest = e
			}
		}
		for _, e := range cls {
			inMultiway[endpointKey(e)] = true
			if e == smallest {
				continue
			}
			if h.H1LargerOnly && !h.H9BothSides &&
				o.est.BaseRows(e.rel) < o.est.BaseRows(smallest.rel) {
				continue
			}
			add(e.rel, e.col, smallest.rel, smallest.col, query.Inner, false)
		}
	}

	for _, c := range o.block.Clauses {
		switch c.Type {
		case query.Anti:
			// Correctness: a Bloom filter must not cross an anti join.
			continue
		case query.Left:
			// Correctness: the apply column must not be on the
			// row-preserving (left) side. Build from preserve, apply to
			// nullable.
			add(c.RightRel, c.RightCol, c.LeftRel, c.LeftCol, query.Left, false)
			continue
		case query.Semi:
			// The hash join orientation is fixed (subquery side builds),
			// so only the preserve side can receive a filter.
			add(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, query.Semi, false)
			continue
		}
		// Inner clause: skip endpoints already covered by a multi-way
		// class; otherwise H1 (or H9) decides the direction(s).
		if inMultiway[fmt.Sprintf("%d.%s", c.LeftRel, c.LeftCol)] ||
			inMultiway[fmt.Sprintf("%d.%s", c.RightRel, c.RightCol)] {
			continue
		}
		lRows, rRows := o.est.BaseRows(c.LeftRel), o.est.BaseRows(c.RightRel)
		if h.H9BothSides {
			add(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, query.Inner, lRows < rRows)
			add(c.RightRel, c.RightCol, c.LeftRel, c.LeftCol, query.Inner, rRows < lRows)
			continue
		}
		if h.H1LargerOnly {
			if lRows >= rRows {
				add(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, query.Inner, false)
			} else {
				add(c.RightRel, c.RightCol, c.LeftRel, c.LeftCol, query.Inner, false)
			}
			continue
		}
		add(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, query.Inner, false)
		add(c.RightRel, c.RightCol, c.LeftRel, c.LeftCol, query.Inner, false)
	}

	if h.MultiColumn {
		o.markCompositeCandidates()
	}
}

// crossesOuterUnit reports whether a filter built on buildRel and applied
// to applyRel would reach out of an anti or left join's subquery side into
// its row-preserving side: there it would drop the very rows the join must
// keep. Only an inner clause can pair such endpoints — a second, correlated
// condition of the anti or left join, which the join evaluates along with
// its own clause.
func (o *optimizer) crossesOuterUnit(applyRel, buildRel int) bool {
	for _, c := range o.block.Clauses {
		if (c.Type == query.Anti || c.Type == query.Left) &&
			c.SubRels.Has(buildRel) && !c.SubRels.Has(applyRel) {
			return true
		}
	}
	return false
}

// markCompositeCandidates adds one multi-column candidate per relation pair
// joined on two or more inner clauses (the §5 extension). The composite key
// covers the first two clauses; direction follows Heuristic 1.
func (o *optimizer) markCompositeCandidates() {
	h := o.opts.Heuristics
	type pairCols struct{ lc, rc [2]string }
	pairs := make(map[query.RelSet]*pairCols)
	counts := make(map[query.RelSet]int)
	for _, c := range o.block.Clauses {
		if c.Type != query.Inner || c.Derived {
			continue
		}
		key := query.NewRelSet(c.LeftRel, c.RightRel)
		n := counts[key]
		counts[key] = n + 1
		if n >= 2 {
			continue
		}
		p := pairs[key]
		if p == nil {
			p = &pairCols{}
			pairs[key] = p
		}
		// Orient columns so index 0 is the lower relation index.
		lo, _ := c.LeftRel, c.RightRel
		if key.First() == lo {
			p.lc[n], p.rc[n] = c.LeftCol, c.RightCol
		} else {
			p.lc[n], p.rc[n] = c.RightCol, c.LeftCol
		}
	}
	for key, n := range counts {
		if n < 2 {
			continue
		}
		p := pairs[key]
		m := key.Members()
		loRel, hiRel := m[0], m[1]
		applyRel, buildRel := loRel, hiRel
		applyCols, buildCols := p.lc, p.rc
		if o.est.BaseRows(hiRel) > o.est.BaseRows(loRel) {
			applyRel, buildRel = hiRel, loRel
			applyCols, buildCols = p.rc, p.lc
		}
		if h.H2MinApplyRows > 0 && o.est.BaseRows(applyRel) <= h.H2MinApplyRows {
			continue
		}
		if o.crossesOuterUnit(applyRel, buildRel) {
			continue
		}
		// A pair filter is at least as selective as either constituent
		// single-column filter and costs one probe per row instead of two,
		// so it supersedes the pair's single-column candidates (otherwise
		// Heuristic 4 would stack all three on the same scan).
		kept := o.cands[:0]
		for _, c := range o.cands {
			if c.applyCol2 == "" && key == query.NewRelSet(c.applyRel, c.buildRel) {
				continue
			}
			kept = append(kept, c)
		}
		o.cands = kept
		for i, c := range o.cands {
			c.id = i
		}
		o.cands = append(o.cands, &candidate{
			id:       len(o.cands),
			applyRel: applyRel, applyCol: applyCols[0], applyCol2: applyCols[1],
			buildRel: buildRel, buildCol: buildCols[0], buildCol2: buildCols[1],
			clauseType: query.Inner,
		})
	}
}

type endpoint struct {
	rel int
	col string
}

func endpointKey(e endpoint) string { return fmt.Sprintf("%d.%s", e.rel, e.col) }

// equivalenceClasses groups inner equi-join endpoints that must be equal.
func (o *optimizer) equivalenceClasses() [][]endpoint {
	parent := make(map[endpoint]endpoint)
	var find func(endpoint) endpoint
	find = func(e endpoint) endpoint {
		p, ok := parent[e]
		if !ok || p == e {
			parent[e] = e
			return e
		}
		r := find(p)
		parent[e] = r
		return r
	}
	for _, c := range o.block.Clauses {
		if c.Type != query.Inner {
			continue
		}
		a, b := endpoint{c.LeftRel, c.LeftCol}, endpoint{c.RightRel, c.RightCol}
		parent[find(a)] = find(b)
	}
	groups := make(map[endpoint][]endpoint)
	for e := range parent {
		r := find(e)
		groups[r] = append(groups[r], e)
	}
	out := make([][]endpoint, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool {
			if g[i].rel != g[j].rel {
				return g[i].rel < g[j].rel
			}
			return g[i].col < g[j].col
		})
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return endpointKey(out[i][0]) < endpointKey(out[j][0]) })
	return out
}

// ---------------------------------------------------------------------------
// First bottom-up phase (§3.4): populate Δ without costing anything.

func (o *optimizer) phase1(res *Result) {
	all := o.block.AllRels()
	for _, s := range subsetsByPopcount(all, 2) {
		if !o.block.ConnectedSet(s) || !o.block.NonInnerUnitOK(s) {
			continue
		}
		o.forEachSplit(s, func(a, b query.RelSet) {
			for _, or := range [2][2]query.RelSet{{a, b}, {b, a}} {
				outer, inner := or[0], or[1]
				if !o.legalJoin(outer, inner) {
					continue
				}
				o.phase1Pairs++
				if o.opts.Heuristics.H8MinJoinInputCard > 0 {
					o.joinInputCard += o.est.JoinCard(outer) + o.est.JoinCard(inner)
				}
				for _, c := range o.cands {
					if !outer.Has(c.applyRel) || !inner.Has(c.buildRel) {
						continue
					}
					// Heuristic 3: an FK apply column referencing a PK
					// build column that stays lossless under this δ will
					// filter nothing — prune the δ.
					if o.opts.Heuristics.H3FKLosslessPK && c.applyCol2 == "" &&
						o.est.LosslessPK(c.applyRel, c.applyCol, c.buildRel, c.buildCol, inner) {
						continue
					}
					// Heuristic 9's guard: only keep δs whose build side
					// is smaller than the apply relation.
					if c.fromH9 && o.est.JoinCard(inner) >= o.est.BaseRows(c.applyRel) {
						continue
					}
					c.addDelta(inner)
				}
			}
		})
	}
	res.Phase1Pairs = o.phase1Pairs
}

// applyHeuristic8 clears all candidates when the observed total join-input
// cardinality is below the threshold (quick transactional queries do not
// deserve an expanded search space).
func (o *optimizer) applyHeuristic8() {
	h := o.opts.Heuristics
	if h.H8MinJoinInputCard > 0 && o.joinInputCard < h.H8MinJoinInputCard {
		for _, c := range o.cands {
			c.deltas = nil
		}
	}
}

// ---------------------------------------------------------------------------
// Base plan construction, including Bloom filter sub-plan costing (§3.5).

// keptFraction is the candidate-generic Bloom reduction factor: composite
// candidates (the §5 multi-column extension) use the pair estimator.
func (o *optimizer) keptFraction(c *candidate, d query.RelSet) float64 {
	if c.applyCol2 != "" {
		return o.est.CompositeKeptFraction(c.applyRel, c.buildRel, d)
	}
	return o.est.BloomKeptFraction(c.applyRel, c.applyCol, c.buildRel, c.buildCol, d)
}

// semiFraction is the FPR-free selectivity used by Heuristic 6.
func (o *optimizer) semiFraction(c *candidate, d query.RelSet) float64 {
	if c.applyCol2 != "" {
		return o.est.CompositeKeptFraction(c.applyRel, c.buildRel, d)
	}
	return o.est.SemiJoinFraction(c.applyRel, c.applyCol, c.buildRel, c.buildCol, d)
}

// buildNDV is the candidate-generic filter sizing estimate (Heuristic 5).
func (o *optimizer) buildNDV(c *candidate, d query.RelSet) float64 {
	if c.applyCol2 != "" {
		return o.est.CompositeBuildNDV(c.buildRel, d)
	}
	return o.est.BuildNDV(c.buildRel, c.buildCol, d)
}

// scanCost prices a base scan: every stored row is touched, local predicate
// operators run per row, and each Bloom filter costs k per surviving row.
func (o *optimizer) scanCost(rel int, nBloom int) float64 {
	t := o.block.Relations[rel].Table
	ops := 0
	if o.block.Relations[rel].Pred != nil {
		ops = 1
	}
	c := o.opts.Cost.Scan(t.RowCount, ops, 0)
	c += o.est.BaseRows(rel) * float64(nBloom) * o.opts.Cost.BloomApplyCost
	return c
}

func (o *optimizer) newScanNode(rel int, rows, cst float64, bloomIDs []int) *plan.Scan {
	r := o.block.Relations[rel]
	return &plan.Scan{
		Rel: rel, Alias: r.Alias, Table: r.Table.Name, Pred: r.Pred,
		ApplyBlooms: bloomIDs, Rows: rows, Cost: cst,
	}
}

// makeBasePlans seeds the plan lists for single relations. withBF adds the
// costed Bloom filter sub-plans of BF-CBO; naive adds the uncosted
// unknown-δ sub-plans of the strawman.
func (o *optimizer) makeBasePlans(withBF, naive bool) {
	h := o.opts.Heuristics
	for rel := range o.block.Relations {
		s := query.NewRelSet(rel)
		l := &planList{}
		o.lists[s] = l
		rows := o.est.BaseRows(rel)
		l.insert(&subPlan{
			rels: s, rows: rows, cost: o.scanCost(rel, 0),
			node: o.newScanNode(rel, rows, o.scanCost(rel, 0), nil),
		})

		if naive {
			o.addNaiveBasePlans(rel, l)
			continue
		}
		if !withBF {
			continue
		}

		// Collect this relation's candidates and their surviving δs.
		type choice struct {
			cand   *candidate
			deltas []query.RelSet
		}
		var choices []choice
		for _, c := range o.cands {
			if c.applyRel != rel || len(c.deltas) == 0 {
				continue
			}
			var ok []query.RelSet
			for _, d := range c.deltas {
				// Heuristic 6: the filter must be selective enough.
				if h.H6MaxKeepFraction > 0 && o.semiFraction(c, d) > h.H6MaxKeepFraction {
					continue
				}
				// Heuristic 5: the filter must fit the size budget.
				if h.H5MaxBuildNDV > 0 && o.buildNDV(c, d) > h.H5MaxBuildNDV {
					continue
				}
				ok = append(ok, d)
			}
			if len(ok) == 0 {
				continue
			}
			// Strongest δ first, so capped enumeration keeps the best.
			sort.Slice(ok, func(i, j int) bool {
				fi := o.keptFraction(c, ok[i])
				fj := o.keptFraction(c, ok[j])
				if fi != fj {
					return fi < fj
				}
				return ok[i].Count() < ok[j].Count()
			})
			choices = append(choices, choice{c, ok})
		}
		if len(choices) == 0 {
			continue
		}

		// Heuristic 4: all candidates are applied simultaneously; we only
		// enumerate combinations of δs (capped).
		const maxCombos = 32
		combos := [][]query.RelSet{nil}
		for _, ch := range choices {
			var next [][]query.RelSet
			for _, base := range combos {
				for _, d := range ch.deltas {
					next = append(next, append(append([]query.RelSet{}, base...), d))
					if len(next) >= maxCombos {
						break
					}
				}
				if len(next) >= maxCombos {
					break
				}
			}
			combos = next
		}
		var bfPlans []*subPlan
		for _, combo := range combos {
			pending := make([]pendingBF, len(choices))
			prodRows := rows
			ids := make([]int, len(choices))
			for i, ch := range choices {
				d := combo[i]
				f := o.keptFraction(ch.cand, d)
				id := o.allocBloom(ch.cand, d)
				pending[i] = pendingBF{cand: ch.cand, delta: d, factor: f, bloomID: id}
				prodRows *= f
				ids[i] = id
			}
			sortPending(pending)
			cst := o.scanCost(rel, len(pending))
			bfPlans = append(bfPlans, &subPlan{
				rels: s, rows: prodRows, cost: cst, pending: pending,
				node: o.newScanNode(rel, prodRows, cst, ids),
			})
		}
		// Heuristic 7: cap the number of Bloom filter sub-plans kept for
		// one relation, retaining the one with fewest rows (then cheapest).
		if h.H7MaxSubPlans > 0 && len(bfPlans) > h.H7MaxSubPlans {
			sort.Slice(bfPlans, func(i, j int) bool {
				if bfPlans[i].rows != bfPlans[j].rows {
					return bfPlans[i].rows < bfPlans[j].rows
				}
				return bfPlans[i].cost < bfPlans[j].cost
			})
			bfPlans = bfPlans[:1]
		}
		for _, p := range bfPlans {
			l.insert(p)
		}
	}
}

func (o *optimizer) allocBloom(c *candidate, delta query.RelSet) int {
	id := o.nextID
	o.nextID++
	o.specs[id] = plan.BloomSpec{
		ID:       id,
		ApplyRel: c.applyRel, ApplyCol: c.applyCol,
		BuildRel: c.buildRel, BuildCol: c.buildCol,
		ApplyCol2: c.applyCol2, BuildCol2: c.buildCol2,
		Delta:       delta,
		EstBuildNDV: o.buildNDV(c, delta),
	}
	return id
}

// ---------------------------------------------------------------------------
// Shared bottom-up enumeration (plain CBO, and phase 2 of BF-CBO, §3.6).

// subsetsByPopcount returns all non-empty subsets of universe with at least
// minSize members, ordered by population count (bottom-up DP order).
func subsetsByPopcount(universe query.RelSet, minSize int) []query.RelSet {
	var subs []query.RelSet
	u := uint64(universe)
	for s := u; ; s = (s - 1) & u {
		if bits.OnesCount64(s) >= minSize {
			subs = append(subs, query.RelSet(s))
		}
		if s == 0 {
			break
		}
	}
	sort.Slice(subs, func(i, j int) bool {
		ci, cj := subs[i].Count(), subs[j].Count()
		if ci != cj {
			return ci < cj
		}
		return subs[i] < subs[j]
	})
	return subs
}

// forEachSplit visits each unordered split of s into two non-empty,
// connected halves that are joinable (share a clause) and respect the
// non-inner units.
func (o *optimizer) forEachSplit(s query.RelSet, fn func(a, b query.RelSet)) {
	u := uint64(s)
	for sub := (u - 1) & u; sub != 0; sub = (sub - 1) & u {
		a := query.RelSet(sub)
		if !a.Has(s.First()) {
			continue
		}
		b := s.Minus(a)
		if b.Empty() {
			continue
		}
		if !o.block.ConnectedSet(a) || !o.block.ConnectedSet(b) {
			continue
		}
		if !o.block.NonInnerUnitOK(a) || !o.block.NonInnerUnitOK(b) {
			continue
		}
		if len(o.block.ClausesBetween(a, b)) == 0 {
			continue
		}
		fn(a, b)
	}
}

// legalJoin reports whether (outer, inner) is a valid orientation: every
// non-inner clause spanning the split must have its preserve side on the
// outer and its entire subquery unit as the inner.
func (o *optimizer) legalJoin(outer, inner query.RelSet) bool {
	for _, c := range o.block.ClausesBetween(outer, inner) {
		if c.Type == query.Inner {
			continue
		}
		if !outer.Has(c.LeftRel) || inner != c.SubRels {
			return false
		}
	}
	return true
}

// spanningJoinType returns the join type of the (outer, inner) pair: the
// non-inner clause type if one spans the split, else Inner.
func (o *optimizer) spanningJoinType(outer, inner query.RelSet) query.JoinType {
	for _, c := range o.block.ClausesBetween(outer, inner) {
		if c.Type != query.Inner {
			return c.Type
		}
	}
	return query.Inner
}

// conds builds the physical equi-join conditions for the (outer, inner)
// orientation.
func (o *optimizer) conds(outer, inner query.RelSet) []plan.Cond {
	var out []plan.Cond
	for _, c := range o.block.ClausesBetween(outer, inner) {
		if outer.Has(c.LeftRel) {
			out = append(out, plan.Cond{OuterRel: c.LeftRel, OuterCol: c.LeftCol, InnerRel: c.RightRel, InnerCol: c.RightCol})
		} else {
			out = append(out, plan.Cond{OuterRel: c.RightRel, OuterCol: c.RightCol, InnerRel: c.LeftRel, InnerCol: c.LeftCol})
		}
	}
	return out
}

func (o *optimizer) enumerate() error {
	all := o.block.AllRels()
	if all.Single() {
		return nil
	}
	for _, s := range subsetsByPopcount(all, 2) {
		if !o.block.ConnectedSet(s) || !o.block.NonInnerUnitOK(s) {
			continue
		}
		list := &planList{}
		o.lists[s] = list
		var err error
		o.forEachSplit(s, func(a, b query.RelSet) {
			if err != nil {
				return
			}
			for _, or := range [2][2]query.RelSet{{a, b}, {b, a}} {
				outer, inner := or[0], or[1]
				if !o.legalJoin(outer, inner) {
					continue
				}
				if e := o.joinPair(s, outer, inner, list); e != nil {
					err = e
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// joinPair evaluates every sub-plan combination for one ordered join pair
// and inserts the resulting join sub-plans into the target list.
func (o *optimizer) joinPair(s, outer, inner query.RelSet, list *planList) error {
	lo, ok1 := o.lists[outer]
	li, ok2 := o.lists[inner]
	if !ok1 || !ok2 {
		return nil
	}
	jt := o.spanningJoinType(outer, inner)
	conds := o.conds(outer, inner)
	for _, pa := range lo.plans {
		for _, pb := range li.plans {
			o.combine(s, outer, inner, jt, conds, pa, pb, list)
			if list.len() > o.opts.MaxPlansPerSet {
				return ErrSearchSpaceExceeded
			}
		}
	}
	return nil
}

// combine implements §3.6's sub-plan join rules for one (outer, inner)
// sub-plan pair, trying every admissible join method.
func (o *optimizer) combine(s, outer, inner query.RelSet, jt query.JoinType, conds []plan.Cond, pa, pb *subPlan, list *planList) {
	// Inner-side pending filters must remain resolvable: their build
	// relations may not already sit inside the joined set's outer half.
	for _, p := range pb.pending {
		need := p.delta
		if p.delta.Empty() { // naive unknown δ: only the build rel is fixed
			need = query.NewRelSet(p.cand.buildRel)
		}
		if need.Overlaps(outer) {
			return
		}
	}

	if pa.uncosted || pb.uncosted {
		o.combineNaive(s, jt, conds, pa, pb, list)
		return
	}

	// Classify the outer side's pending Bloom filters.
	var resolved, carried []pendingBF
	mustHash := jt != query.Inner
	for _, p := range pa.pending {
		switch {
		case p.delta.SubsetOf(inner):
			// Fully resolvable here; this join builds the filter.
			resolved = append(resolved, p)
			mustHash = true
		case p.delta.Overlaps(inner):
			// Partial overlap: only legal under the Fig. 3 exception —
			// the build relation itself must be on this build side (its
			// column populates the filter here), and the outstanding δ
			// relations must be promised by the inner side's own pending
			// filters.
			if !inner.Has(p.cand.buildRel) {
				return
			}
			outstanding := p.delta.Minus(inner)
			promised := query.RelSet(0)
			for _, q := range pb.pending {
				promised = promised.Union(q.delta)
			}
			if !outstanding.SubsetOf(promised) {
				return // Fig. 3(b): illegal combination
			}
			resolved = append(resolved, p)
			mustHash = true
		default:
			carried = append(carried, p)
		}
	}
	carried = append(carried, pb.pending...)
	sortPending(carried)

	rows := o.est.JoinCard(s)
	for _, p := range carried {
		rows *= p.factor
	}

	var buildIDs []int
	for _, p := range resolved {
		buildIDs = append(buildIDs, p.bloomID)
	}

	// Hash join (always admissible; mandatory when resolving or non-inner).
	{
		hc, streaming := o.opts.Cost.HashJoin(pa.rows, pb.rows)
		hc += o.opts.Cost.BloomBuild(pb.rows, len(resolved))
		total := pa.cost + pb.cost + hc
		node := &plan.Join{
			Method: plan.HashJoin, JoinType: jt, Outer: pa.node, Inner: pb.node,
			Conds: conds, BuildBlooms: buildIDs, Streaming: streaming,
			Rows: rows, Cost: total,
		}
		list.insert(&subPlan{rels: s, rows: rows, cost: total, pending: carried, node: node})
	}
	if mustHash {
		return
	}
	// Merge join.
	{
		mc := o.opts.Cost.MergeJoin(pa.rows, pb.rows)
		total := pa.cost + pb.cost + mc
		node := &plan.Join{
			Method: plan.MergeJoin, JoinType: jt, Outer: pa.node, Inner: pb.node,
			Conds: conds, Rows: rows, Cost: total,
		}
		list.insert(&subPlan{rels: s, rows: rows, cost: total, pending: carried, node: node})
	}
	// Nested loop join.
	{
		nc := o.opts.Cost.NestLoop(pa.rows, pb.rows)
		total := pa.cost + pb.cost + nc
		node := &plan.Join{
			Method: plan.NestLoopJoin, JoinType: jt, Outer: pa.node, Inner: pb.node,
			Conds: conds, Rows: rows, Cost: total,
		}
		list.insert(&subPlan{rels: s, rows: rows, cost: total, pending: carried, node: node})
	}
}

// collectSpecs gathers the BloomSpecs referenced by the final tree.
func (o *optimizer) collectSpecs(p *plan.Plan) {
	ids := make(map[int]bool)
	for _, s := range p.Scans() {
		for _, id := range s.ApplyBlooms {
			ids[id] = true
		}
	}
	var specs []plan.BloomSpec
	for id := range ids {
		if sp, ok := o.specs[id]; ok {
			specs = append(specs, sp)
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	p.Blooms = specs
}
