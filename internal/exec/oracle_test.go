package exec

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// The oracle is the reference evaluator every executor-correctness suite
// compares against. It evaluates a query.Block itself — never a plan — in
// the plainest way available: local predicates row by row through
// query.Predicate.Eval, joins through Go maps over whole relations, and
// aggregates as plain loops. It calls nothing else in this package, and
// nothing in hashtab, bloom, plan, optimizer or the query kernels, so a
// defect in the engine cannot hide by being shared with its reference.
//
// Semantics. The block's relations outside every non-inner clause's
// subquery side (SubRels) are inner-joined on the inner clauses among
// them. Each non-inner clause then attaches its SubRels unit — evaluated
// recursively the same way — on every clause between the unit and the
// rest: semi keeps a row with at least one match, anti a row with none,
// left emits every match or one null-extended row. Relations of a semi or
// anti unit stay hidden (row id -1) in the result, as they are in SQL.

// oracleTuple holds one row id per block relation; -1 marks a relation
// that is null-extended (left join) or hidden (semi/anti subquery side).
type oracleTuple []int32

// oracle holds one block with its relations' tables and the row ids that
// pass each relation's local predicate.
type oracle struct {
	b      *query.Block
	tables []*storage.Table
	rows   [][]int32
}

func newOracle(db *storage.Database, b *query.Block) (*oracle, error) {
	o := &oracle{b: b}
	for _, r := range b.Relations {
		t, err := db.Table(r.Table.Name)
		if err != nil {
			return nil, err
		}
		ids := []int32{}
		for i := 0; i < t.NumRows(); i++ {
			if r.Pred == nil || r.Pred.Eval(t, i) {
				ids = append(ids, int32(i))
			}
		}
		o.tables = append(o.tables, t)
		o.rows = append(o.rows, ids)
	}
	return o, nil
}

func bit(rel int) uint64           { return 1 << uint(rel) }
func has(set uint64, rel int) bool { return set&bit(rel) != 0 }

// all is the set of every relation of the block.
func (o *oracle) all() uint64 { return bit(len(o.b.Relations)) - 1 }

// hidden is the set of relations inside a semi or anti unit.
func (o *oracle) hidden() uint64 {
	var h uint64
	for _, c := range o.b.Clauses {
		if c.Type == query.Semi || c.Type == query.Anti {
			h |= uint64(c.SubRels)
		}
	}
	return h
}

func (o *oracle) ints(rel int, col string) ([]int64, error) {
	c, err := o.tables[rel].Column(col)
	if err != nil {
		return nil, err
	}
	if c.Ints == nil {
		return nil, fmt.Errorf("oracle: %s.%s is not an int column", o.b.Relations[rel].Alias, col)
	}
	return c.Ints, nil
}

// result evaluates the whole block.
func (o *oracle) result() ([]oracleTuple, error) { return o.eval(o.all()) }

// count is the number of rows the inner clauses among the relations of
// set produce over their filtered rows — the row count of any inner-only
// plan node covering set.
func (o *oracle) count(set uint64) (int, error) {
	ts, err := o.innerJoin(set)
	return len(ts), err
}

// eval evaluates the relations of set: the ones outside every unit nested
// in set are inner-joined, then each top-level unit attaches.
func (o *oracle) eval(set uint64) ([]oracleTuple, error) {
	var units []query.JoinClause
	for i, c := range o.b.Clauses {
		sub := uint64(c.SubRels)
		if c.Type == query.Inner || !has(set, c.LeftRel) || sub&^set != 0 {
			continue
		}
		top := true
		for k, d := range o.b.Clauses {
			dsub := uint64(d.SubRels)
			if d.Type == query.Inner || !has(set, d.LeftRel) || dsub&^set != 0 {
				continue
			}
			// Nested in a larger unit, or the same unit named twice.
			if sub&^dsub == 0 && (sub != dsub || k < i) {
				top = false
			}
		}
		if top {
			units = append(units, c)
		}
	}
	base := set
	for _, u := range units {
		base &^= uint64(u.SubRels)
	}
	ts, err := o.innerJoin(base)
	if err != nil {
		return nil, err
	}
	visible := base
	for len(units) > 0 {
		attached := false
		for k := 0; k < len(units); k++ {
			u := units[k]
			if !has(visible, u.LeftRel) {
				continue
			}
			if ts, err = o.attach(ts, visible, u); err != nil {
				return nil, err
			}
			if u.Type == query.Left {
				visible |= uint64(u.SubRels)
			}
			units = append(units[:k], units[k+1:]...)
			k--
			attached = true
		}
		if !attached {
			return nil, fmt.Errorf("oracle: block %q: a unit hangs off no visible relation", o.b.Name)
		}
	}
	return ts, nil
}

// innerJoin joins the filtered rows of set's relations on every inner
// clause among them, adding one relation at a time through a Go map on
// one linking clause and checking the others per candidate pair.
func (o *oracle) innerJoin(set uint64) ([]oracleTuple, error) {
	n := len(o.b.Relations)
	var ts []oracleTuple
	var joined uint64
	for joined != set {
		next := -1
		for _, c := range o.b.Clauses {
			if c.Type != query.Inner {
				continue
			}
			if has(joined, c.LeftRel) && has(set&^joined, c.RightRel) {
				next = c.RightRel
				break
			}
			if has(joined, c.RightRel) && has(set&^joined, c.LeftRel) {
				next = c.LeftRel
				break
			}
		}
		if next < 0 { // the first relation, or a cross product
			for r := 0; r < n; r++ {
				if has(set&^joined, r) {
					next = r
					break
				}
			}
		}
		if joined == 0 {
			for _, id := range o.rows[next] {
				t := make(oracleTuple, n)
				for i := range t {
					t[i] = -1
				}
				t[next] = id
				ts = append(ts, t)
			}
			joined = bit(next)
			continue
		}
		type cond struct {
			mine, theirs []int64
			rel          int
		}
		var conds []cond
		for _, c := range o.b.Clauses {
			if c.Type != query.Inner {
				continue
			}
			mineCol, otherRel, otherCol := "", -1, ""
			switch {
			case c.LeftRel == next && has(joined, c.RightRel):
				mineCol, otherRel, otherCol = c.LeftCol, c.RightRel, c.RightCol
			case c.RightRel == next && has(joined, c.LeftRel):
				mineCol, otherRel, otherCol = c.RightCol, c.LeftRel, c.LeftCol
			default:
				continue
			}
			mine, err := o.ints(next, mineCol)
			if err != nil {
				return nil, err
			}
			theirs, err := o.ints(otherRel, otherCol)
			if err != nil {
				return nil, err
			}
			conds = append(conds, cond{mine, theirs, otherRel})
		}
		var index map[int64][]int32
		if len(conds) > 0 {
			index = make(map[int64][]int32)
			for _, id := range o.rows[next] {
				k := conds[0].mine[id]
				index[k] = append(index[k], id)
			}
		}
		var out []oracleTuple
		for _, t := range ts {
			cands := o.rows[next]
			if len(conds) > 0 {
				cands = index[conds[0].theirs[t[conds[0].rel]]]
			}
		match:
			for _, id := range cands {
				for _, c := range conds[1:] {
					if c.mine[id] != c.theirs[t[c.rel]] {
						continue match
					}
				}
				nt := append(oracleTuple(nil), t...)
				nt[next] = id
				out = append(out, nt)
			}
		}
		ts = out
		joined |= bit(next)
	}
	return ts, nil
}

// attach joins unit u's subquery side to ts on every clause between the
// unit and the visible relations, with u's join type.
func (o *oracle) attach(ts []oracleTuple, visible uint64, u query.JoinClause) ([]oracleTuple, error) {
	unit := uint64(u.SubRels)
	sub, err := o.eval(unit)
	if err != nil {
		return nil, err
	}
	type cond struct {
		in, out       []int64
		inRel, outRel int
	}
	var conds []cond
	for _, c := range o.b.Clauses {
		l, r := has(unit, c.LeftRel), has(unit, c.RightRel)
		if l == r {
			continue
		}
		if c.Type != query.Inner && c.SubRels != u.SubRels {
			return nil, fmt.Errorf("oracle: block %q: clause %s crosses unit %s", o.b.Name, c, u.SubRels)
		}
		inRel, inCol, outRel, outCol := c.RightRel, c.RightCol, c.LeftRel, c.LeftCol
		if l {
			inRel, inCol, outRel, outCol = c.LeftRel, c.LeftCol, c.RightRel, c.RightCol
		}
		if !has(visible, outRel) {
			return nil, fmt.Errorf("oracle: block %q: clause %s reaches outside the unit's scope", o.b.Name, c)
		}
		in, err := o.ints(inRel, inCol)
		if err != nil {
			return nil, err
		}
		out, err := o.ints(outRel, outCol)
		if err != nil {
			return nil, err
		}
		conds = append(conds, cond{in, out, inRel, outRel})
	}
	c0 := conds[0]
	index := make(map[int64][]int)
	for k, s := range sub {
		if id := s[c0.inRel]; id >= 0 {
			index[c0.in[id]] = append(index[c0.in[id]], k)
		}
	}
	var out []oracleTuple
	for _, t := range ts {
		var matches []int
		if oid := t[c0.outRel]; oid >= 0 {
		cand:
			for _, k := range index[c0.out[oid]] {
				for _, c := range conds[1:] {
					iid, oid := sub[k][c.inRel], t[c.outRel]
					if iid < 0 || oid < 0 || c.in[iid] != c.out[oid] {
						continue cand
					}
				}
				matches = append(matches, k)
			}
		}
		switch u.Type {
		case query.Semi:
			if len(matches) > 0 {
				out = append(out, t)
			}
		case query.Anti:
			if len(matches) == 0 {
				out = append(out, t)
			}
		case query.Left:
			if len(matches) == 0 {
				out = append(out, t)
			}
			for _, k := range matches {
				nt := append(oracleTuple(nil), t...)
				for rel := range nt {
					if has(unit, rel) {
						nt[rel] = sub[k][rel]
					}
				}
				out = append(out, nt)
			}
		default:
			return nil, fmt.Errorf("oracle: unsupported unit join type %s", u.Type)
		}
	}
	return out, nil
}

// canonical renders tuples as a sorted multiset of "id,id,..." strings
// over the relations not in skip, in relation order.
func oracleCanonical(ts []oracleTuple, skip uint64) []string {
	rows := make([]string, len(ts))
	var buf []byte
	for i, t := range ts {
		buf = buf[:0]
		for rel, id := range t {
			if !has(skip, rel) {
				buf = strconv.AppendInt(buf, int64(id), 10)
				buf = append(buf, ',')
			}
		}
		rows[i] = string(buf)
	}
	sort.Strings(rows)
	return rows
}

// oracleAgg is the oracle's value for one AggSpec. Abs and GroupAbs hold
// the sums of the terms' magnitudes: the scale a float sum's rounding
// error is relative to.
type oracleAgg struct {
	Count     int64
	Sum, Abs  float64
	Groups    map[string]int
	GroupSums map[string]float64
	GroupAbs  map[string]float64
}

// aggregate computes each spec over ts with plain loops, skipping
// null-extended rows in sums and counting them under "<null>" in group
// counts.
func (o *oracle) aggregate(ts []oracleTuple, specs []AggSpec) ([]oracleAgg, error) {
	floats := func(rel int, col string) ([]float64, error) {
		c, err := o.tables[rel].Column(col)
		if err != nil {
			return nil, err
		}
		if c.Floats == nil {
			return nil, fmt.Errorf("oracle: %s.%s is not a float column", o.b.Relations[rel].Alias, col)
		}
		return c.Floats, nil
	}
	strs := func(rel int, col string) ([]string, error) {
		c, err := o.tables[rel].Column(col)
		if err != nil {
			return nil, err
		}
		if c.Strings == nil {
			return nil, fmt.Errorf("oracle: %s.%s is not a string column", o.b.Relations[rel].Alias, col)
		}
		return c.Strings, nil
	}
	out := make([]oracleAgg, len(specs))
	for i, s := range specs {
		v := &out[i]
		switch s.Kind {
		case AggCountStar:
			v.Count = int64(len(ts))
		case AggSum:
			vals, err := floats(s.Rel, s.Col)
			if err != nil {
				return nil, err
			}
			for _, t := range ts {
				if id := t[s.Rel]; id >= 0 {
					v.Sum += vals[id]
					v.Abs += math.Abs(vals[id])
				}
			}
		case AggRevenue, AggGroupRevenue:
			price, err := floats(s.Rel, s.PriceCol)
			if err != nil {
				return nil, err
			}
			disc, err := floats(s.Rel, s.DiscCol)
			if err != nil {
				return nil, err
			}
			var keys []string
			if s.Kind == AggGroupRevenue {
				if keys, err = strs(s.KeyRel, s.KeyCol); err != nil {
					return nil, err
				}
				v.GroupSums, v.GroupAbs = map[string]float64{}, map[string]float64{}
			}
			for _, t := range ts {
				id := t[s.Rel]
				if id < 0 {
					continue
				}
				term := price[id] * (1 - disc[id])
				if keys == nil {
					v.Sum += term
					v.Abs += math.Abs(term)
					continue
				}
				if kid := t[s.KeyRel]; kid >= 0 {
					v.GroupSums[keys[kid]] += term
					v.GroupAbs[keys[kid]] += math.Abs(term)
				}
			}
		case AggGroupCount:
			keys, err := strs(s.KeyRel, s.KeyCol)
			if err != nil {
				return nil, err
			}
			v.Groups = map[string]int{}
			for _, t := range ts {
				if id := t[s.KeyRel]; id >= 0 {
					v.Groups[keys[id]]++
				} else {
					v.Groups["<null>"]++
				}
			}
		default:
			return nil, fmt.Errorf("oracle: unknown aggregate kind %d", s.Kind)
		}
	}
	return out, nil
}
