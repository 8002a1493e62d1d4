package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"
)

// genStmt is one statement of the plan-joins workload.
type genStmt struct {
	// Name is "<shape><relations>-<index>", e.g. "clique6-12".
	Name string
	Rels int
	SQL  string
}

// planJoinsMix is the shape mix of the plan-joins workload: (shape,
// relation count) pairs, each generated planJoinsRepeats times per pass.
var planJoinsMix = []struct {
	shape string
	rels  int
}{
	{"chain", 4}, {"chain", 5}, {"chain", 6}, {"chain", 7}, {"chain", 8},
	{"star", 4}, {"star", 5},
	{"snowflake", 6}, {"snowflake", 7}, {"snowflake", 8},
	{"clique", 4}, {"clique", 5}, {"clique", 6}, {"clique", 7}, {"clique", 8},
}

const planJoinsRepeats = 4

// generatePlanJoins returns the statements of one plan-joins pass for a
// workload seed, in mix order; the same seed always yields the same
// statements.
//
// Structure is fixed: which tables a statement joins and which column each
// predicate filters follow from its mix entry and repeat number. The seed
// picks the literals, and every predicate is a window or list of fixed
// width over uniformly distributed values, so each keeps about the same
// share of its table whatever the seed. Every seed thus plans and executes
// about the same amount of work, and a difference between two runs is the
// engine's, not the draw's.
func generatePlanJoins(seed uint64) []genStmt {
	g := &generator{r: rand.New(rand.NewPCG(seed, 0x706c616e6a6f696e))}
	out := make([]genStmt, 0, len(planJoinsMix)*planJoinsRepeats)
	for k := 0; k < planJoinsRepeats; k++ {
		for _, m := range planJoinsMix {
			var rels []genRel
			var edges []genEdge
			switch m.shape {
			case "chain":
				rels, edges = chain(m.rels, k)
			case "star":
				rels, edges = star(m.rels, k)
			case "snowflake":
				rels, edges = snowflake(m.rels, k)
			case "clique":
				rels, edges = clique(m.rels)
			default:
				panic("perfbench: unknown shape " + m.shape)
			}
			for i := range rels {
				if m.shape == "clique" {
					rels[i].pred = g.cliquePred(rels[i].alias, i)
				} else {
					rels[i].pred = g.pred(rels[i].alias, rels[i].table, k+i)
				}
			}
			out = append(out, genStmt{
				Name: fmt.Sprintf("%s%d-%d", m.shape, m.rels, len(out)),
				Rels: m.rels,
				SQL:  render(rels, edges),
			})
		}
	}
	return out
}

// genRel is one FROM-list entry with its local predicate.
type genRel struct {
	alias, table, pred string
}

// genEdge is one equi-join conjunct "a = b" between two aliases' columns.
type genEdge struct{ left, right string }

// render prints a statement as SQL text.
func render(rels []genRel, edges []genEdge) string {
	var b strings.Builder
	b.WriteString("SELECT * FROM ")
	for i, r := range rels {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.table + " " + r.alias)
	}
	var conj []string
	for _, e := range edges {
		conj = append(conj, e.left+" = "+e.right)
	}
	for _, r := range rels {
		conj = append(conj, r.pred)
	}
	b.WriteString(" WHERE " + strings.Join(conj, " AND "))
	return b.String()
}

// Two long foreign-key paths through the schema; a chain is a window of
// one of them. Edge i joins node i and node i+1.
var chainPaths = []struct {
	nodes []genRel
	edges []genEdge
}{
	{
		nodes: []genRel{{alias: "r1", table: "region"}, {alias: "n1", table: "nation"},
			{alias: "c", table: "customer"}, {alias: "o", table: "orders"},
			{alias: "l", table: "lineitem"}, {alias: "s", table: "supplier"},
			{alias: "n2", table: "nation"}, {alias: "r2", table: "region"}},
		edges: []genEdge{{"n1.n_regionkey", "r1.r_regionkey"}, {"c.c_nationkey", "n1.n_nationkey"},
			{"o.o_custkey", "c.c_custkey"}, {"l.l_orderkey", "o.o_orderkey"},
			{"l.l_suppkey", "s.s_suppkey"}, {"s.s_nationkey", "n2.n_nationkey"},
			{"n2.n_regionkey", "r2.r_regionkey"}},
	},
	{
		nodes: []genRel{{alias: "c", table: "customer"}, {alias: "o", table: "orders"},
			{alias: "l", table: "lineitem"}, {alias: "p", table: "part"},
			{alias: "ps", table: "partsupp"}, {alias: "s", table: "supplier"},
			{alias: "n", table: "nation"}, {alias: "r", table: "region"}},
		edges: []genEdge{{"o.o_custkey", "c.c_custkey"}, {"l.l_orderkey", "o.o_orderkey"},
			{"l.l_partkey", "p.p_partkey"}, {"ps.ps_partkey", "p.p_partkey"},
			{"ps.ps_suppkey", "s.s_suppkey"}, {"s.s_nationkey", "n.n_nationkey"},
			{"n.n_regionkey", "r.r_regionkey"}},
	},
}

// chain is repeat k's window of n relations on one of the two paths.
func chain(n, k int) ([]genRel, []genEdge) {
	path := chainPaths[k%len(chainPaths)]
	start := (k / len(chainPaths)) % (len(path.nodes) - n + 1)
	return append([]genRel(nil), path.nodes[start:start+n]...),
		append([]genEdge(nil), path.edges[start:start+n-1]...)
}

// starDims are the dimensions lineitem references directly.
var starDims = []struct {
	rel   genRel
	edges []genEdge
}{
	{genRel{alias: "o", table: "orders"}, []genEdge{{"l.l_orderkey", "o.o_orderkey"}}},
	{genRel{alias: "p", table: "part"}, []genEdge{{"l.l_partkey", "p.p_partkey"}}},
	{genRel{alias: "s", table: "supplier"}, []genEdge{{"l.l_suppkey", "s.s_suppkey"}}},
	{genRel{alias: "ps", table: "partsupp"}, []genEdge{{"l.l_partkey", "ps.ps_partkey"}, {"l.l_suppkey", "ps.ps_suppkey"}}},
}

// star joins lineitem to n-1 of its dimensions (n is 4 or 5); repeat k of
// a 4-way star leaves out dimension k.
func star(n, k int) ([]genRel, []genEdge) {
	rels := []genRel{{alias: "l", table: "lineitem"}}
	var edges []genEdge
	for i, d := range starDims {
		if n < len(starDims)+1 && i == k%len(starDims) {
			continue
		}
		rels = append(rels, d.rel)
		edges = append(edges, d.edges...)
	}
	return rels, edges
}

// snowExpansions are the outward steps a snowflake may take from a
// relation already in the query: parent alias, new relation, join edge.
var snowExpansions = []struct {
	parent string
	rel    genRel
	edge   genEdge
}{
	{"o", genRel{alias: "c", table: "customer"}, genEdge{"o.o_custkey", "c.c_custkey"}},
	{"c", genRel{alias: "n1", table: "nation"}, genEdge{"c.c_nationkey", "n1.n_nationkey"}},
	{"n1", genRel{alias: "r1", table: "region"}, genEdge{"n1.n_regionkey", "r1.r_regionkey"}},
	{"s", genRel{alias: "n2", table: "nation"}, genEdge{"s.s_nationkey", "n2.n_nationkey"}},
	{"n2", genRel{alias: "r2", table: "region"}, genEdge{"n2.n_regionkey", "r2.r_regionkey"}},
	{"p", genRel{alias: "ps", table: "partsupp"}, genEdge{"ps.ps_partkey", "p.p_partkey"}},
}

// snowflake is lineitem with orders, part and supplier, grown outward one
// expansion at a time until it has n relations (n ≥ 4); repeat k starts
// its choices at a different open expansion.
func snowflake(n, k int) ([]genRel, []genEdge) {
	rels := []genRel{{alias: "l", table: "lineitem"}}
	var edges []genEdge
	for _, d := range starDims[:3] {
		rels = append(rels, d.rel)
		edges = append(edges, d.edges...)
	}
	have := map[string]bool{"l": true, "o": true, "p": true, "s": true}
	for step := 0; len(rels) < n; step++ {
		var open []int
		for i, x := range snowExpansions {
			if have[x.parent] && !have[x.rel.alias] {
				open = append(open, i)
			}
		}
		x := snowExpansions[open[(k+step)%len(open)]]
		have[x.rel.alias] = true
		rels = append(rels, x.rel)
		edges = append(edges, x.edge)
	}
	return rels, edges
}

// clique self-joins n copies of orders on o_orderkey; transitive closure
// turns the chain of equalities into a clique, the optimizer's hardest
// enumeration case.
func clique(n int) ([]genRel, []genEdge) {
	rels := make([]genRel, n)
	var edges []genEdge
	for i := range rels {
		rels[i] = genRel{alias: fmt.Sprintf("o%d", i+1), table: "orders"}
		if i > 0 {
			edges = append(edges, genEdge{fmt.Sprintf("o%d.o_orderkey", i), fmt.Sprintf("o%d.o_orderkey", i+1)})
		}
	}
	return rels, edges
}

// generator draws predicate literals from one seeded stream.
type generator struct{ r *rand.Rand }

// window returns a seeded [lo, lo+width] inside [min, max].
func (g *generator) window(min, max, width int) (int, int) {
	lo := min + g.r.IntN(max-min-width+1)
	return lo, lo + width
}

// pick returns n consecutive values of vals (wrapping) from a seeded
// start, quoted for an IN list.
func (g *generator) pick(n int, vals ...string) string {
	start := g.r.IntN(len(vals))
	q := make([]string, n)
	for i := range q {
		q[i] = "'" + vals[(start+i)%len(vals)] + "'"
	}
	return strings.Join(q, ", ")
}

// date renders a day offset from 1992-01-01 as a SQL date literal.
func date(day int) string {
	return "DATE '" + time.Date(1992, 1, 1+day, 0, 0, 0, 0, time.UTC).Format("2006-01-02") + "'"
}

// orderDays is the span of o_orderdate (1992-01-01 to 1998-08-02).
const orderDays = 2405

var (
	nations    = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
)

// pred returns relation a's predicate on its table, filtering column
// choice k (mod the table's choices); each keeps about two fifths of the
// table.
func (g *generator) pred(a, table string, k int) string {
	var cands []func() string
	switch table {
	case "region":
		cands = []func() string{
			func() string { return fmt.Sprintf("%s.r_name IN (%s)", a, g.pick(2, regions...)) },
		}
	case "nation":
		cands = []func() string{
			func() string { return fmt.Sprintf("%s.n_name IN (%s)", a, g.pick(10, nations...)) },
			func() string {
				lo, hi := g.window(0, 4, 1)
				return fmt.Sprintf("%s.n_regionkey BETWEEN %d AND %d", a, lo, hi)
			},
		}
	case "customer":
		cands = []func() string{
			func() string { return fmt.Sprintf("%s.c_mktsegment IN (%s)", a, g.pick(2, segments...)) },
			func() string {
				lo, hi := g.window(-999, 9999, 4400)
				return fmt.Sprintf("%s.c_acctbal BETWEEN %d.00 AND %d.00", a, lo, hi)
			},
		}
	case "supplier":
		cands = []func() string{
			func() string {
				lo, hi := g.window(-999, 9999, 4400)
				return fmt.Sprintf("%s.s_acctbal BETWEEN %d.00 AND %d.00", a, lo, hi)
			},
			func() string {
				lo, hi := g.window(0, 24, 9)
				return fmt.Sprintf("%s.s_nationkey BETWEEN %d AND %d", a, lo, hi)
			},
		}
	case "part":
		cands = []func() string{
			func() string {
				lo, hi := g.window(1, 50, 19)
				return fmt.Sprintf("%s.p_size BETWEEN %d AND %d", a, lo, hi)
			},
			func() string {
				lo, hi := g.window(900, 2000, 440)
				return fmt.Sprintf("%s.p_retailprice BETWEEN %d.00 AND %d.00", a, lo, hi)
			},
		}
	case "partsupp":
		cands = []func() string{
			func() string {
				lo, hi := g.window(1, 9999, 4000)
				return fmt.Sprintf("%s.ps_availqty BETWEEN %d AND %d", a, lo, hi)
			},
			func() string {
				lo, hi := g.window(1, 1000, 400)
				return fmt.Sprintf("%s.ps_supplycost BETWEEN %d.00 AND %d.00", a, lo, hi)
			},
		}
	case "orders":
		cands = []func() string{
			func() string {
				lo, hi := g.window(0, orderDays, 960)
				return fmt.Sprintf("%s.o_orderdate BETWEEN %s AND %s", a, date(lo), date(hi))
			},
			func() string { return fmt.Sprintf("%s.o_orderpriority IN (%s)", a, g.pick(2, priorities...)) },
			func() string {
				lo, hi := g.window(850, 550_000, 220_000)
				return fmt.Sprintf("%s.o_totalprice BETWEEN %d.00 AND %d.00", a, lo, hi)
			},
		}
	case "lineitem":
		cands = []func() string{
			func() string {
				lo, hi := g.window(0, orderDays, 960)
				return fmt.Sprintf("%s.l_shipdate BETWEEN %s AND %s", a, date(lo), date(hi))
			},
			func() string { return fmt.Sprintf("%s.l_shipmode IN (%s)", a, g.pick(3, shipModes...)) },
			func() string {
				lo, hi := g.window(1, 50, 19)
				return fmt.Sprintf("%s.l_quantity BETWEEN %d.0 AND %d.0", a, lo, hi)
			},
		}
	default:
		panic("perfbench: no predicates for table " + table)
	}
	return cands[k%len(cands)]()
}

// cliquePred gives copy i of orders a predicate of family i mod 4, each
// keeping about four fifths of the table, so the conjunction over eight
// copies is not empty.
func (g *generator) cliquePred(a string, i int) string {
	switch i % 4 {
	case 0:
		lo, hi := g.window(850, 550_000, 440_000)
		return fmt.Sprintf("%s.o_totalprice BETWEEN %d.00 AND %d.00", a, lo, hi)
	case 1:
		lo, hi := g.window(0, orderDays, 1920)
		return fmt.Sprintf("%s.o_orderdate BETWEEN %s AND %s", a, date(lo), date(hi))
	case 2:
		return fmt.Sprintf("%s.o_orderpriority IN (%s)", a, g.pick(4, priorities...))
	default:
		lo, hi := g.window(850, 550_000, 110_000)
		return fmt.Sprintf("NOT %s.o_totalprice BETWEEN %d.00 AND %d.00", a, lo, hi)
	}
}
