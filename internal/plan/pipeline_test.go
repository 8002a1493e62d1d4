package plan

import (
	"strings"
	"testing"

	"bfcbo/internal/query"
)

func scanNode(rel int, alias string) *Scan {
	return &Scan{Rel: rel, Alias: alias, Table: alias}
}

func TestDecomposeHashChain(t *testing.T) {
	// HJ(HJ(s0, s1), s2): the probe spine s0 runs fused through both
	// probes; each build side is its own earlier pipeline, in inner-first
	// order (s2, s1, s0).
	j1 := &Join{Method: HashJoin, JoinType: query.Inner,
		Outer: scanNode(0, "a"), Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	j0 := &Join{Method: HashJoin, JoinType: query.Inner,
		Outer: j1, Inner: scanNode(2, "c"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "y", InnerRel: 2, InnerCol: "y"}}}
	pls, err := Decompose(&Plan{Root: j0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pls) != 3 {
		t.Fatalf("pipelines = %d, want 3", len(pls))
	}
	// P0: scan c -> hash-build for j0 (root's build side first).
	if s, ok := pls[0].Source.(*Scan); !ok || s.Alias != "c" || pls[0].Sink != SinkHashBuild || pls[0].SinkJoin != j0 {
		t.Fatalf("P0 wrong: %s", pls[0].Describe())
	}
	// P1: scan b -> hash-build for j1.
	if s, ok := pls[1].Source.(*Scan); !ok || s.Alias != "b" || pls[1].SinkJoin != j1 {
		t.Fatalf("P1 wrong: %s", pls[1].Describe())
	}
	// P2: scan a -> probe j1 -> probe j0 -> result, after P0 and P1.
	p2 := pls[2]
	if s, ok := p2.Source.(*Scan); !ok || s.Alias != "a" || p2.Sink != SinkResult {
		t.Fatalf("P2 wrong: %s", p2.Describe())
	}
	if len(p2.Ops) != 2 || p2.Ops[0] != j1 || p2.Ops[1] != j0 {
		t.Fatalf("P2 ops wrong: %s", p2.Describe())
	}
	if len(p2.Deps) != 2 {
		t.Fatalf("P2 deps = %v, want two", p2.Deps)
	}
	if got := p2.Rels(); got != query.NewRelSet(0, 1, 2) {
		t.Fatalf("P2 rels = %s", got)
	}
}

func TestDecomposeMergeAndNestLoop(t *testing.T) {
	// NL(MJ(s0, s1), s2): merge join breaks both inputs into sort
	// pipelines and sources a new pipeline that carries the NL probe.
	mj := &Join{Method: MergeJoin, JoinType: query.Inner,
		Outer: scanNode(0, "a"), Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	nl := &Join{Method: NestLoopJoin, JoinType: query.Inner,
		Outer: mj, Inner: scanNode(2, "c"),
		Conds: []Cond{{OuterRel: 1, OuterCol: "y", InnerRel: 2, InnerCol: "y"}}}
	pls, err := Decompose(&Plan{Root: nl})
	if err != nil {
		t.Fatal(err)
	}
	// c materialize, b sort-inner, a sort-outer, merge -> NL probe -> result.
	if len(pls) != 4 {
		t.Fatalf("pipelines = %d, want 4", len(pls))
	}
	if pls[0].Sink != SinkMaterialize || pls[0].SinkJoin != nl {
		t.Fatalf("P0 wrong: %s", pls[0].Describe())
	}
	if pls[1].Sink != SinkSortInner || pls[2].Sink != SinkSortOuter {
		t.Fatalf("sort pipelines wrong: %s / %s", pls[1].Describe(), pls[2].Describe())
	}
	last := pls[3]
	if last.Source != mj || len(last.Ops) != 1 || last.Ops[0] != nl || last.Sink != SinkResult {
		t.Fatalf("final pipeline wrong: %s", last.Describe())
	}
	if len(last.Deps) != 3 {
		t.Fatalf("final deps = %v, want three", last.Deps)
	}
}

func TestExplainPipelines(t *testing.T) {
	j := &Join{Method: HashJoin, JoinType: query.Inner,
		Outer: scanNode(0, "a"), Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	out := (&Plan{Root: j}).ExplainPipelines()
	for _, want := range []string{"pipelines (2):", "P0: Scan b -> hash-build", "P1: Scan a -> HashJoin(inner) probe(x) -> result (after P0)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainPipelines missing %q:\n%s", want, out)
		}
	}
}

func TestDecomposeRejectsUnknownNode(t *testing.T) {
	if _, err := Decompose(&Plan{Root: nil}); err == nil {
		t.Fatal("nil root should fail decomposition")
	}
}
