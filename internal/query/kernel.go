package query

import (
	"fmt"
	"strings"

	"bfcbo/internal/storage"
)

// Kernel is the vectorized form of one predicate, bound to a table's typed
// column slices at compile time. EvalBatch filters a selection vector in
// place — no per-row Column() lookups and no interface dispatch inside the
// loop — and returns the surviving prefix. Kernels are immutable after
// Compile and safe to share across scan workers.
type Kernel interface {
	// EvalBatch keeps the selected rows that satisfy the predicate,
	// compacting sel in place and returning the kept prefix.
	EvalBatch(sel []int32) []int32
	// EvalRow reports whether one row satisfies the predicate. It is the
	// bound scalar path: same data access as EvalBatch, one row at a time.
	EvalRow(row int32) bool
	// Weight is a static relative cost estimate used to seed chain order
	// before pass rates are observed.
	Weight() float64
	// Label is the predicate's display string for runtime counters.
	Label() string
}

// Compile lowers a predicate into a conjunction of kernels bound to t's
// columns. A top-level And flattens into one kernel per conjunct so the
// chain can reorder them independently; any other predicate compiles to a
// single kernel. String predicates compile against the column's dictionary
// (built on first use) and run as int32 code compares.
func Compile(p Predicate, t *storage.Table) ([]Kernel, error) {
	if p == nil {
		return nil, nil
	}
	if and, ok := p.(And); ok {
		var ks []Kernel
		for _, q := range and.Ps {
			sub, err := Compile(q, t)
			if err != nil {
				return nil, err
			}
			ks = append(ks, sub...)
		}
		return ks, nil
	}
	k, err := compileNode(p, t)
	if err != nil {
		return nil, err
	}
	return []Kernel{k}, nil
}

// kernelMeta carries the shared Label/Weight implementation.
type kernelMeta struct {
	label  string
	weight float64
}

func (m kernelMeta) Label() string   { return m.label }
func (m kernelMeta) Weight() float64 { return m.weight }

func meta(p Predicate, w float64) kernelMeta { return kernelMeta{label: p.String(), weight: w} }

type number interface {
	~int64 | ~float64
}

// cmpKernel compares a typed column against a constant. The comparison
// forms mirror cmpHolds exactly — GT is !(v <= val) and GE is !(v < val)
// so NaN floats pass GT/GE/NE just as the scalar Eval does.
type cmpKernel[T number] struct {
	kernelMeta
	vals []T
	op   CmpOp
	val  T
}

func (k *cmpKernel[T]) EvalBatch(sel []int32) []int32 {
	vals, val := k.vals, k.val
	n := 0
	switch k.op {
	case EQ:
		for _, r := range sel {
			if vals[r] == val {
				sel[n] = r
				n++
			}
		}
	case NE:
		for _, r := range sel {
			if vals[r] != val {
				sel[n] = r
				n++
			}
		}
	case LT:
		for _, r := range sel {
			if vals[r] < val {
				sel[n] = r
				n++
			}
		}
	case LE:
		for _, r := range sel {
			if vals[r] <= val {
				sel[n] = r
				n++
			}
		}
	case GT:
		for _, r := range sel {
			if !(vals[r] <= val) {
				sel[n] = r
				n++
			}
		}
	case GE:
		for _, r := range sel {
			if !(vals[r] < val) {
				sel[n] = r
				n++
			}
		}
	}
	return sel[:n]
}

func (k *cmpKernel[T]) EvalRow(row int32) bool {
	v := k.vals[row]
	return cmpHolds(k.op, v == k.val, v < k.val)
}

// betweenKernel keeps lo <= v <= hi; NaN fails both bounds, matching Eval.
type betweenKernel[T number] struct {
	kernelMeta
	vals   []T
	lo, hi T
}

func (k *betweenKernel[T]) EvalBatch(sel []int32) []int32 {
	vals, lo, hi := k.vals, k.lo, k.hi
	n := 0
	for _, r := range sel {
		if v := vals[r]; v >= lo && v <= hi {
			sel[n] = r
			n++
		}
	}
	return sel[:n]
}

func (k *betweenKernel[T]) EvalRow(row int32) bool {
	v := k.vals[row]
	return v >= k.lo && v <= k.hi
}

// cmpColsKernel compares two int64 columns of the same relation.
type cmpColsKernel struct {
	kernelMeta
	a, b []int64
	op   CmpOp
}

func (k *cmpColsKernel) EvalBatch(sel []int32) []int32 {
	a, b := k.a, k.b
	n := 0
	switch k.op {
	case EQ:
		for _, r := range sel {
			if a[r] == b[r] {
				sel[n] = r
				n++
			}
		}
	case NE:
		for _, r := range sel {
			if a[r] != b[r] {
				sel[n] = r
				n++
			}
		}
	case LT:
		for _, r := range sel {
			if a[r] < b[r] {
				sel[n] = r
				n++
			}
		}
	case LE:
		for _, r := range sel {
			if a[r] <= b[r] {
				sel[n] = r
				n++
			}
		}
	case GT:
		for _, r := range sel {
			if a[r] > b[r] {
				sel[n] = r
				n++
			}
		}
	case GE:
		for _, r := range sel {
			if a[r] >= b[r] {
				sel[n] = r
				n++
			}
		}
	}
	return sel[:n]
}

func (k *cmpColsKernel) EvalRow(row int32) bool {
	a, b := k.a[row], k.b[row]
	return cmpHolds(k.op, a == b, a < b)
}

// inIntKernel keeps rows whose value appears in vals (linear membership,
// matching the scalar path — IN lists here are a handful of constants).
type inIntKernel struct {
	kernelMeta
	col  []int64
	vals []int64
}

func (k *inIntKernel) EvalBatch(sel []int32) []int32 {
	col, vals := k.col, k.vals
	n := 0
	for _, r := range sel {
		v := col[r]
		for _, x := range vals {
			if v == x {
				sel[n] = r
				n++
				break
			}
		}
	}
	return sel[:n]
}

func (k *inIntKernel) EvalRow(row int32) bool {
	v := k.col[row]
	for _, x := range k.vals {
		if v == x {
			return true
		}
	}
	return false
}

// dictEqKernel is StrEq/StrNE over dictionary codes: one int32 compare per
// row. When the constant is absent from the dictionary, equality matches
// nothing and inequality matches everything.
type dictEqKernel struct {
	kernelMeta
	codes   []int32
	code    int32
	present bool
	neg     bool // true for <>
}

func (k *dictEqKernel) EvalBatch(sel []int32) []int32 {
	if !k.present {
		if k.neg {
			return sel
		}
		return sel[:0]
	}
	codes, code := k.codes, k.code
	n := 0
	if k.neg {
		for _, r := range sel {
			if codes[r] != code {
				sel[n] = r
				n++
			}
		}
	} else {
		for _, r := range sel {
			if codes[r] == code {
				sel[n] = r
				n++
			}
		}
	}
	return sel[:n]
}

func (k *dictEqKernel) EvalRow(row int32) bool {
	if !k.present {
		return k.neg
	}
	return (k.codes[row] == k.code) != k.neg
}

// dictMatchKernel evaluates an arbitrary string predicate as a code-table
// lookup: the predicate ran once per distinct dictionary value at compile
// time (the StrContains strategy from the issue — scan distinct entries,
// then match codes), so the per-row work is two array loads.
type dictMatchKernel struct {
	kernelMeta
	codes []int32
	match []bool
}

func (k *dictMatchKernel) EvalBatch(sel []int32) []int32 {
	codes, match := k.codes, k.match
	n := 0
	for _, r := range sel {
		if match[codes[r]] {
			sel[n] = r
			n++
		}
	}
	return sel[:n]
}

func (k *dictMatchKernel) EvalRow(row int32) bool { return k.match[k.codes[row]] }

// notKernel negates an arbitrary inner kernel row-wise. Compile inverts
// dictionary kernels directly instead, so this only wraps numeric and
// composite predicates.
type notKernel struct {
	kernelMeta
	inner Kernel
}

func (k *notKernel) EvalBatch(sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		if !k.inner.EvalRow(r) {
			sel[n] = r
			n++
		}
	}
	return sel[:n]
}

func (k *notKernel) EvalRow(row int32) bool { return !k.inner.EvalRow(row) }

// orKernel short-circuits a disjunction row-wise in declared order.
type orKernel struct {
	kernelMeta
	ks []Kernel
}

func (k *orKernel) EvalBatch(sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		if k.EvalRow(r) {
			sel[n] = r
			n++
		}
	}
	return sel[:n]
}

func (k *orKernel) EvalRow(row int32) bool {
	for _, sub := range k.ks {
		if sub.EvalRow(row) {
			return true
		}
	}
	return false
}

// andKernel is a nested conjunction (below a Not/Or); top-level Ands are
// flattened by Compile instead so the chain can reorder them.
type andKernel struct {
	kernelMeta
	ks []Kernel
}

func (k *andKernel) EvalBatch(sel []int32) []int32 {
	for _, sub := range k.ks {
		if len(sel) == 0 {
			break
		}
		sel = sub.EvalBatch(sel)
	}
	return sel
}

func (k *andKernel) EvalRow(row int32) bool {
	for _, sub := range k.ks {
		if !sub.EvalRow(row) {
			return false
		}
	}
	return true
}

func compileNode(p Predicate, t *storage.Table) (Kernel, error) {
	switch q := p.(type) {
	case CmpInt:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		return &cmpKernel[int64]{kernelMeta: meta(p, 1.0), vals: c.Ints, op: q.Op, val: q.Val}, nil
	case CmpFloat:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		return &cmpKernel[float64]{kernelMeta: meta(p, 1.0), vals: c.Floats, op: q.Op, val: q.Val}, nil
	case CmpCols:
		a, err := t.Column(q.Col1)
		if err != nil {
			return nil, err
		}
		b, err := t.Column(q.Col2)
		if err != nil {
			return nil, err
		}
		return &cmpColsKernel{kernelMeta: meta(p, 1.2), a: a.Ints, b: b.Ints, op: q.Op}, nil
	case BetweenInt:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		return &betweenKernel[int64]{kernelMeta: meta(p, 1.1), vals: c.Ints, lo: q.Lo, hi: q.Hi}, nil
	case BetweenFloat:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		return &betweenKernel[float64]{kernelMeta: meta(p, 1.1), vals: c.Floats, lo: q.Lo, hi: q.Hi}, nil
	case InInt:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		w := 0.6 + 0.2*float64(len(q.Vals))
		return &inIntKernel{kernelMeta: meta(p, w), col: c.Ints, vals: q.Vals}, nil
	case StrEq:
		d, err := t.Dict(q.Col)
		if err != nil {
			return nil, err
		}
		code, ok := d.Code(q.Val)
		return &dictEqKernel{kernelMeta: meta(p, 1.0), codes: d.Codes, code: code, present: ok}, nil
	case StrNE:
		d, err := t.Dict(q.Col)
		if err != nil {
			return nil, err
		}
		code, ok := d.Code(q.Val)
		return &dictEqKernel{kernelMeta: meta(p, 1.0), codes: d.Codes, code: code, present: ok, neg: true}, nil
	case StrIn:
		return dictMatch(p, t, q.Col, 1.1, func(s string) bool {
			for _, x := range q.Vals {
				if s == x {
					return true
				}
			}
			return false
		})
	case StrPrefix:
		return dictMatch(p, t, q.Col, 1.1, func(s string) bool {
			return strings.HasPrefix(s, q.Prefix)
		})
	case StrContains:
		return dictMatch(p, t, q.Col, 1.2, func(s string) bool {
			return containsOrdered(s, q.Subs)
		})
	case Not:
		inner, err := compileNode(q.P, t)
		if err != nil {
			return nil, err
		}
		switch ik := inner.(type) {
		case *dictEqKernel:
			return &dictEqKernel{kernelMeta: meta(p, ik.weight), codes: ik.codes,
				code: ik.code, present: ik.present, neg: !ik.neg}, nil
		case *dictMatchKernel:
			inv := make([]bool, len(ik.match))
			for i, m := range ik.match {
				inv[i] = !m
			}
			return &dictMatchKernel{kernelMeta: meta(p, ik.weight), codes: ik.codes, match: inv}, nil
		default:
			return &notKernel{kernelMeta: meta(p, inner.Weight()+0.2), inner: inner}, nil
		}
	case Or:
		ks := make([]Kernel, len(q.Ps))
		w := 0.3
		for i, sub := range q.Ps {
			k, err := compileNode(sub, t)
			if err != nil {
				return nil, err
			}
			ks[i] = k
			w += k.Weight()
		}
		return &orKernel{kernelMeta: meta(p, w), ks: ks}, nil
	case And:
		ks := make([]Kernel, 0, len(q.Ps))
		w := 0.0
		for _, sub := range q.Ps {
			flat, err := Compile(sub, t)
			if err != nil {
				return nil, err
			}
			ks = append(ks, flat...)
		}
		for _, k := range ks {
			w += k.Weight()
		}
		return &andKernel{kernelMeta: meta(p, w), ks: ks}, nil
	default:
		return nil, fmt.Errorf("query: no kernel for predicate type %T (%s)", p, p.String())
	}
}

// dictMatch builds a match table by running fn once per distinct
// dictionary value, turning any string predicate into a code lookup.
func dictMatch(p Predicate, t *storage.Table, col string, w float64, fn func(string) bool) (Kernel, error) {
	d, err := t.Dict(col)
	if err != nil {
		return nil, err
	}
	match := make([]bool, len(d.Values))
	for i, v := range d.Values {
		match[i] = fn(v)
	}
	return &dictMatchKernel{kernelMeta: meta(p, w), codes: d.Codes, match: match}, nil
}

func containsOrdered(s string, subs []string) bool {
	for _, sub := range subs {
		i := strings.Index(s, sub)
		if i < 0 {
			return false
		}
		s = s[i+len(sub):]
	}
	return true
}

// reorderEvery is how many batches a chain processes between reorders.
const reorderEvery = 64

// PredCount is one kernel's observed row flow, in compile order.
type PredCount struct {
	Pred    string
	In, Out int64
}

// Chain evaluates a conjunction of kernels over selection vectors,
// adaptively reordering them by measured selectivity: every reorderEvery
// batches the kernels are re-sorted ascending by weight/(1-passRate), so
// cheap, selective predicates run first and expensive ones see fewer rows.
// A Chain is per-worker state — not safe for concurrent use — while the
// kernels it references are shared and immutable.
type Chain struct {
	ks      []Kernel
	order   []int // evaluation order, indices into ks
	in, out []int64
	rank    []float64
	batches int
}

// NewChain seeds the evaluation order cheapest-weight-first.
func NewChain(ks []Kernel) *Chain {
	c := &Chain{
		ks:    ks,
		order: make([]int, len(ks)),
		in:    make([]int64, len(ks)),
		out:   make([]int64, len(ks)),
		rank:  make([]float64, len(ks)),
	}
	for i := range ks {
		c.order[i] = i
		c.rank[i] = ks[i].Weight()
	}
	c.sortOrder()
	return c
}

// EvalBatch runs the chain over sel, compacting in place.
func (c *Chain) EvalBatch(sel []int32) []int32 {
	for _, i := range c.order {
		if len(sel) == 0 {
			break
		}
		n := len(sel)
		sel = c.ks[i].EvalBatch(sel)
		c.in[i] += int64(n)
		c.out[i] += int64(len(sel))
	}
	c.batches++
	if c.batches%reorderEvery == 0 {
		c.reorder()
	}
	return sel
}

// Counts snapshots observed per-kernel row flow in compile order.
func (c *Chain) Counts() []PredCount {
	out := make([]PredCount, len(c.ks))
	for i, k := range c.ks {
		out[i] = PredCount{Pred: k.Label(), In: c.in[i], Out: c.out[i]}
	}
	return out
}

func (c *Chain) reorder() {
	for i, k := range c.ks {
		pass := 0.5
		if c.in[i] > 0 {
			pass = float64(c.out[i]) / float64(c.in[i])
		}
		drop := 1 - pass
		if drop < 0.01 {
			drop = 0.01
		}
		c.rank[i] = k.Weight() / drop
	}
	c.sortOrder()
}

// sortOrder is an insertion sort over order by rank: tiny n, zero
// allocations (sort.Slice would allocate in the scan hot path).
func (c *Chain) sortOrder() {
	for i := 1; i < len(c.order); i++ {
		j := i
		for j > 0 && c.rank[c.order[j]] < c.rank[c.order[j-1]] {
			c.order[j], c.order[j-1] = c.order[j-1], c.order[j]
			j--
		}
	}
}
