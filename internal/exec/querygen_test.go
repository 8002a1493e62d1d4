package exec

import (
	"fmt"
	"math"
	"math/rand"

	"bfcbo/internal/catalog"
	"bfcbo/internal/datagen"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// The random block generator of the differential suite
// (differential_test.go). Like the oracle it uses no engine code: it reads
// the TPC-H schema and data only to pick tables, columns and constants.

// diffKey is one joinable key column. diffDomains groups them by the key
// they hold; the first column of each domain is its table's primary key.
type diffKey struct{ table, col string }

var diffDomains = [][]diffKey{
	{{"orders", "o_orderkey"}, {"lineitem", "l_orderkey"}},
	{{"customer", "c_custkey"}, {"orders", "o_custkey"}},
	{{"part", "p_partkey"}, {"partsupp", "ps_partkey"}, {"lineitem", "l_partkey"}},
	{{"supplier", "s_suppkey"}, {"partsupp", "ps_suppkey"}, {"lineitem", "l_suppkey"}},
	{{"nation", "n_nationkey"}, {"customer", "c_nationkey"}, {"supplier", "s_nationkey"}},
	{{"region", "r_regionkey"}, {"nation", "n_regionkey"}},
}

// diffSmall are the tables small enough that a foreign-key-to-foreign-key
// join between two of them stays small.
var diffSmall = map[string]bool{"region": true, "nation": true, "supplier": true, "customer": true, "part": true}

var diffTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// diffEdge is a candidate join between two key columns of one domain.
type diffEdge struct{ lcol, rtable, rcol string }

// edgesFrom lists the joins a relation of table tbl can take part in. A
// tree edge (bounded) pairs keys of one domain with a primary key on at
// least one side, or two small tables; an edge that closes a cycle or adds
// a second condition only filters, so any pair of one domain will do.
func edgesFrom(tbl string, bounded bool) []diffEdge {
	var out []diffEdge
	for _, dom := range diffDomains {
		for li, l := range dom {
			if l.table != tbl {
				continue
			}
			for ri, r := range dom {
				if !bounded || li == 0 || ri == 0 || (diffSmall[l.table] && diffSmall[r.table]) {
					out = append(out, diffEdge{l.col, r.table, r.col})
				}
			}
		}
	}
	return out
}

// diffGen draws one block from a seeded stream.
type diffGen struct {
	rng *rand.Rand
	ds  *datagen.Dataset
}

// block generates a random block and its aggregates. Relations form a
// random tree; each tree edge either joins the child into its parent's
// level (inner) or opens a new semi/anti/left unit under it, so units nest
// properly and clauses never reach into a unit from outside it. Extra
// inner clauses then close cycles within a level, and a unit's clause may
// gain a second, correlated condition on otherwise unused columns.
func (g *diffGen) block(name string) (*query.Block, []AggSpec) {
	rng := g.rng
	n := 2 + rng.Intn(5)
	type rel struct {
		table string
		unit  int
	}
	rels := []rel{{table: diffTables[rng.Intn(len(diffTables))]}}
	unitParent := []int{-1} // unit 0 is the block's top level
	unitClause := []int{-1}
	var clauses []query.JoinClause
	for len(rels) < n {
		parent := rng.Intn(len(rels))
		edges := edgesFrom(rels[parent].table, true)
		e := edges[rng.Intn(len(edges))]
		child := len(rels)
		c := query.JoinClause{Type: query.Inner, LeftRel: parent, LeftCol: e.lcol, RightRel: child, RightCol: e.rcol}
		unit := rels[parent].unit
		if rng.Intn(3) == 0 {
			c.Type = []query.JoinType{query.Semi, query.Anti, query.Left}[rng.Intn(3)]
			unitParent = append(unitParent, unit)
			unitClause = append(unitClause, len(clauses))
			unit = len(unitParent) - 1
		}
		rels = append(rels, rel{table: e.rtable, unit: unit})
		clauses = append(clauses, c)
	}
	// SubRels: a unit holds its own relations and every nested unit's.
	for u := 1; u < len(unitParent); u++ {
		var sub query.RelSet
		for i, r := range rels {
			for v := r.unit; v > 0; v = unitParent[v] {
				if v == u {
					sub = sub.Add(i)
					break
				}
			}
		}
		clauses[unitClause[u]].SubRels = sub
	}
	// between returns a random edge joining relations a and b, whose
	// columns pass ok.
	between := func(a, b int, ok func(e diffEdge) bool) (diffEdge, bool) {
		var es []diffEdge
		for _, e := range edgesFrom(rels[a].table, false) {
			if e.rtable == rels[b].table && ok(e) {
				es = append(es, e)
			}
		}
		if len(es) == 0 {
			return diffEdge{}, false
		}
		return es[rng.Intn(len(es))], true
	}
	// Cycles: extra equalities between two relations of one level.
	for a := range rels {
		for b := a + 1; b < len(rels); b++ {
			if rels[a].unit != rels[b].unit || rng.Intn(4) != 0 {
				continue
			}
			if e, ok := between(a, b, func(diffEdge) bool { return true }); ok {
				clauses = append(clauses, query.JoinClause{Type: query.Inner,
					LeftRel: a, LeftCol: e.lcol, RightRel: b, RightCol: e.rcol})
			}
		}
	}
	// Correlated second conditions, on columns no other clause touches so
	// no transitive clause can leak across the unit boundary.
	used := map[string]bool{}
	for _, c := range clauses {
		used[fmt.Sprintf("%d.%s", c.LeftRel, c.LeftCol)] = true
		used[fmt.Sprintf("%d.%s", c.RightRel, c.RightCol)] = true
	}
	for u := 1; u < len(unitParent); u++ {
		c := clauses[unitClause[u]]
		if rng.Intn(2) != 0 {
			continue
		}
		e, ok := between(c.LeftRel, c.RightRel, func(e diffEdge) bool {
			return !used[fmt.Sprintf("%d.%s", c.LeftRel, e.lcol)] && !used[fmt.Sprintf("%d.%s", c.RightRel, e.rcol)]
		})
		if ok {
			used[fmt.Sprintf("%d.%s", c.LeftRel, e.lcol)] = true
			used[fmt.Sprintf("%d.%s", c.RightRel, e.rcol)] = true
			clauses = append(clauses, query.JoinClause{Type: query.Inner,
				LeftRel: c.LeftRel, LeftCol: e.lcol, RightRel: c.RightRel, RightCol: e.rcol})
		}
	}
	b := &query.Block{Name: name, Clauses: clauses}
	for i, r := range rels {
		var pred query.Predicate
		if rng.Intn(5) < 3 {
			pred = g.pred(r.table, 0)
		}
		b.Relations = append(b.Relations, query.Relation{
			Alias: fmt.Sprintf("%s%d", r.table[:1], i),
			Table: g.ds.Schema.MustTable(r.table),
			Pred:  pred,
		})
	}
	hidden := query.RelSet(0)
	for _, c := range clauses {
		if c.Type == query.Semi || c.Type == query.Anti {
			hidden = hidden.Union(c.SubRels)
		}
	}
	var visible []int
	for i := range rels {
		if !hidden.Has(i) {
			visible = append(visible, i)
		}
	}
	return b, g.aggs(b, visible)
}

// column picks a random column of tbl of the given type ("" if none).
func (g *diffGen) column(tbl string, typ catalog.ColType) string {
	var cols []string
	for _, c := range g.ds.Schema.MustTable(tbl).Columns {
		if c.Type == typ {
			cols = append(cols, c.Name)
		}
	}
	if len(cols) == 0 {
		return ""
	}
	return cols[g.rng.Intn(len(cols))]
}

// sample returns the storage column and a random row index of tbl.
func (g *diffGen) sample(tbl, col string) (*storage.Column, int) {
	t, err := g.ds.DB.Table(tbl)
	if err != nil {
		panic(err)
	}
	return t.MustColumn(col), g.rng.Intn(t.NumRows())
}

// pred draws a random local predicate over tbl. Constants come from the
// data most of the time, and otherwise from the edge cases: NaN floats,
// empty IN lists, and strings and ints absent from the column.
func (g *diffGen) pred(tbl string, depth int) query.Predicate {
	rng := g.rng
	if depth < 2 && rng.Intn(5) == 0 {
		switch rng.Intn(3) {
		case 0:
			return query.And{Ps: []query.Predicate{g.pred(tbl, depth+1), g.pred(tbl, depth+1)}}
		case 1:
			return query.Or{Ps: []query.Predicate{g.pred(tbl, depth+1), g.pred(tbl, depth+1)}}
		default:
			return query.Not{P: g.pred(tbl, depth+1)}
		}
	}
	ops := []query.CmpOp{query.EQ, query.NE, query.LT, query.LE, query.GT, query.GE}
	switch rng.Intn(3) {
	case 0:
		col := g.column(tbl, catalog.Int64)
		c, row := g.sample(tbl, col)
		v := c.Ints[row]
		switch rng.Intn(4) {
		case 0:
			return query.CmpInt{Col: col, Op: ops[rng.Intn(len(ops))], Val: v}
		case 1:
			_, row2 := g.sample(tbl, col)
			lo, hi := v, c.Ints[row2]
			if rng.Intn(4) != 0 && lo > hi {
				lo, hi = hi, lo
			}
			return query.BetweenInt{Col: col, Lo: lo, Hi: hi}
		case 2:
			var vals []int64
			for k := rng.Intn(4); k > 0; k-- {
				if rng.Intn(3) == 0 {
					vals = append(vals, -1-rng.Int63n(1000)) // absent
				} else {
					_, r := g.sample(tbl, col)
					vals = append(vals, c.Ints[r])
				}
			}
			return query.InInt{Col: col, Vals: vals}
		default:
			return query.CmpCols{Col1: col, Op: ops[rng.Intn(len(ops))], Col2: g.column(tbl, catalog.Int64)}
		}
	case 1:
		col := g.column(tbl, catalog.Float64)
		if col == "" {
			return g.pred(tbl, depth)
		}
		c, row := g.sample(tbl, col)
		v := c.Floats[row]
		if rng.Intn(4) == 0 {
			v = math.NaN()
		}
		if rng.Intn(2) == 0 {
			return query.CmpFloat{Col: col, Op: ops[rng.Intn(len(ops))], Val: v}
		}
		_, row2 := g.sample(tbl, col)
		lo, hi := v, c.Floats[row2]
		if lo > hi {
			lo, hi = hi, lo
		}
		return query.BetweenFloat{Col: col, Lo: lo, Hi: hi}
	default:
		col := g.column(tbl, catalog.String)
		if col == "" {
			return g.pred(tbl, depth)
		}
		c, row := g.sample(tbl, col)
		v := c.Strings[row]
		if rng.Intn(4) == 0 {
			v = "#absent#" // a constant outside the column's dictionary
		}
		switch rng.Intn(5) {
		case 0:
			return query.StrEq{Col: col, Val: v}
		case 1:
			return query.StrNE{Col: col, Val: v}
		case 2:
			var vals []string
			for k := rng.Intn(4); k > 0; k-- {
				_, r := g.sample(tbl, col)
				vals = append(vals, c.Strings[r])
			}
			if rng.Intn(2) == 0 {
				vals = append(vals, "#absent#")
			}
			return query.StrIn{Col: col, Vals: vals}
		case 3:
			return query.StrPrefix{Col: col, Prefix: v[:rng.Intn(len(v)+1)]}
		default:
			i := rng.Intn(len(v) + 1)
			j := i + rng.Intn(len(v)-i+1)
			return query.StrContains{Col: col, Subs: []string{v[i:j]}}
		}
	}
}

// aggs draws one to three aggregates over the visible relations.
func (g *diffGen) aggs(b *query.Block, visible []int) []AggSpec {
	rng := g.rng
	tbl := func(rel int) string { return b.Relations[rel].Table.Name }
	var specs []AggSpec
	for k := 1 + rng.Intn(3); k > 0; k-- {
		rel := visible[rng.Intn(len(visible))]
		key := visible[rng.Intn(len(visible))]
		fcol := g.column(tbl(rel), catalog.Float64)
		kcol := g.column(tbl(key), catalog.String)
		switch rng.Intn(5) {
		case 0:
			specs = append(specs, AggSpec{Kind: AggCountStar})
		case 1:
			if fcol != "" {
				specs = append(specs, AggSpec{Kind: AggSum, Rel: rel, Col: fcol})
			}
		case 2:
			if fcol != "" {
				specs = append(specs, AggSpec{Kind: AggRevenue, Rel: rel,
					PriceCol: fcol, DiscCol: g.column(tbl(rel), catalog.Float64)})
			}
		case 3:
			if kcol != "" {
				specs = append(specs, AggSpec{Kind: AggGroupCount, KeyRel: key, KeyCol: kcol})
			}
		default:
			if fcol != "" && kcol != "" {
				specs = append(specs, AggSpec{Kind: AggGroupRevenue, Rel: rel,
					PriceCol: fcol, DiscCol: g.column(tbl(rel), catalog.Float64),
					KeyRel: key, KeyCol: kcol})
			}
		}
	}
	if len(specs) == 0 {
		specs = append(specs, AggSpec{Kind: AggCountStar})
	}
	return specs
}
