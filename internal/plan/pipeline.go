package plan

import (
	"fmt"
	"strings"

	"bfcbo/internal/query"
)

// This file decomposes a physical plan tree into an ordered DAG of
// pipelines, the unit of morsel-driven execution. A pipeline starts at a
// morsel source (a base-table scan, or the serial output of a merge join),
// streams batches through zero or more fused operators (hash-join probes,
// nested-loop probes), and ends at a pipeline breaker: the build side of a
// hash join, a sort for merge join, the materialized inner of a nested
// loop, or the query result. Pipelines are emitted in execution order —
// inner (build) sides strictly before the pipelines that consume them —
// which is also what guarantees every Bloom filter is fully built before
// any probe-side scan that waits on it runs (§3.9).

// SinkKind says where a pipeline's output goes.
type SinkKind int

const (
	// SinkResult collects the query's final row set.
	SinkResult SinkKind = iota
	// SinkHashBuild materializes the build side of SinkJoin, populates its
	// Bloom filters, and builds the shared hash table.
	SinkHashBuild
	// SinkSortOuter / SinkSortInner materialize and sort one input of a
	// merge join (SinkJoin) on its first join condition.
	SinkSortOuter
	SinkSortInner
	// SinkMaterialize materializes the inner input of a nested-loop join.
	SinkMaterialize
)

// Spillable annotates the breaker kinds that materialize unbounded state
// and therefore participate in the memory-budget/spill subsystem: hash
// builds (grace hash join) and merge-join sorts (external merge sort).
// Result collection and nested-loop materialization must stay resident —
// their consumers random-access them — so the executor force-accounts them
// instead.
func (k SinkKind) Spillable() bool {
	switch k {
	case SinkHashBuild, SinkSortOuter, SinkSortInner:
		return true
	default:
		return false
	}
}

func (k SinkKind) String() string {
	switch k {
	case SinkResult:
		return "result"
	case SinkHashBuild:
		return "hash-build"
	case SinkSortOuter:
		return "sort-outer"
	case SinkSortInner:
		return "sort-inner"
	case SinkMaterialize:
		return "materialize"
	default:
		return fmt.Sprintf("SinkKind(%d)", int(k))
	}
}

// Pipeline is one streaming segment of a decomposed plan.
type Pipeline struct {
	// ID is the pipeline's position in execution order (0-based).
	ID int
	// Source produces morsels: a *Scan, or a *Join with Method MergeJoin
	// (the serial merge of its two sorted inputs).
	Source Node
	// Ops are the streaming operators applied to every batch in order:
	// hash-join probes and nested-loop probes.
	Ops []*Join
	// Sink says where batches end up; SinkJoin is the consuming join for
	// every kind except SinkResult.
	Sink     SinkKind
	SinkJoin *Join
	// Deps are IDs of pipelines that must complete before this one starts:
	// the build/sort/materialize producers of this pipeline's source and
	// ops, plus the hash-build pipelines that populate any Bloom filter the
	// source scan applies (§3.9: a scan waits for its filters). Every dep
	// ID is smaller than the pipeline's own ID — pipelines are emitted in a
	// topological order — which is what lets the executor schedule the DAG
	// without cycle detection.
	Deps []int
}

// Rels reports the relations covered by the pipeline's output batches.
func (pl *Pipeline) Rels() query.RelSet {
	if len(pl.Ops) > 0 {
		return pl.Ops[len(pl.Ops)-1].Rels()
	}
	return pl.Source.Rels()
}

// EstSinkRows is the planner's estimate of the rows this pipeline delivers
// to its breaker — the sizing input for the executor's spill fan-out (how
// many grace-join partitions a denied hash build splits into).
func (pl *Pipeline) EstSinkRows() float64 {
	if len(pl.Ops) > 0 {
		return pl.Ops[len(pl.Ops)-1].EstRows()
	}
	return pl.Source.EstRows()
}

// Decompose splits a plan into pipelines in execution order. It never
// fails on the node shapes the optimizer emits; unknown node types are an
// error so the executor can surface plan bugs instead of panicking.
func Decompose(p *Plan) ([]*Pipeline, error) {
	d := &decomposer{}
	last, err := d.build(p.Root)
	if err != nil {
		return nil, err
	}
	last.Sink = SinkResult
	d.emit(last)
	d.addBloomDeps()
	return d.out, nil
}

// addBloomDeps adds dependency edges from every pipeline whose source scan
// applies a Bloom filter to the hash-build pipeline that populates it. The
// probe pipeline of the resolving join already depends on the build via the
// breaker edge, but a filter can be applied deeper: a sort/materialize
// pipeline under the probe side sources its scan with no structural edge to
// the sibling build pipeline, and only this edge keeps a concurrent DAG
// schedule from starting the scan before its filter exists.
func (d *decomposer) addBloomDeps() {
	builder := make(map[int]int) // Bloom filter ID -> building pipeline ID
	for _, pl := range d.out {
		if pl.Sink == SinkHashBuild {
			for _, id := range pl.SinkJoin.BuildBlooms {
				builder[id] = pl.ID
			}
		}
	}
	for _, pl := range d.out {
		s, ok := pl.Source.(*Scan)
		if !ok {
			continue
		}
		for _, id := range s.ApplyBlooms {
			if b, ok := builder[id]; ok && b != pl.ID {
				pl.Deps = addDep(pl.Deps, b)
			}
		}
	}
}

// addDep appends id unless already present.
func addDep(deps []int, id int) []int {
	for _, d := range deps {
		if d == id {
			return deps
		}
	}
	return append(deps, id)
}

type decomposer struct {
	out []*Pipeline
}

func (d *decomposer) emit(pl *Pipeline) *Pipeline {
	pl.ID = len(d.out)
	d.out = append(d.out, pl)
	return pl
}

// build returns the open pipeline whose current stream is n's output.
// Breaker-side pipelines are emitted (closed) along the way, inner side
// first, so every build precedes the probe that reads it.
func (d *decomposer) build(n Node) (*Pipeline, error) {
	switch t := n.(type) {
	case *Scan:
		return &Pipeline{ID: -1, Source: t}, nil
	case *Join:
		switch t.Method {
		case HashJoin:
			in, err := d.build(t.Inner)
			if err != nil {
				return nil, err
			}
			in.Sink, in.SinkJoin = SinkHashBuild, t
			d.emit(in)
			out, err := d.build(t.Outer)
			if err != nil {
				return nil, err
			}
			out.Deps = append(out.Deps, in.ID)
			out.Ops = append(out.Ops, t)
			return out, nil
		case MergeJoin:
			in, err := d.build(t.Inner)
			if err != nil {
				return nil, err
			}
			in.Sink, in.SinkJoin = SinkSortInner, t
			d.emit(in)
			o, err := d.build(t.Outer)
			if err != nil {
				return nil, err
			}
			o.Sink, o.SinkJoin = SinkSortOuter, t
			d.emit(o)
			return &Pipeline{ID: -1, Source: t, Deps: []int{in.ID, o.ID}}, nil
		case NestLoopJoin:
			in, err := d.build(t.Inner)
			if err != nil {
				return nil, err
			}
			in.Sink, in.SinkJoin = SinkMaterialize, t
			d.emit(in)
			out, err := d.build(t.Outer)
			if err != nil {
				return nil, err
			}
			out.Deps = append(out.Deps, in.ID)
			out.Ops = append(out.Ops, t)
			return out, nil
		default:
			return nil, fmt.Errorf("plan: cannot decompose join method %v", t.Method)
		}
	default:
		return nil, fmt.Errorf("plan: cannot decompose node %T", n)
	}
}

// DAGStats summarizes a decomposed pipeline DAG — the registration record
// a process-wide scheduler needs to admit the query: its size, its
// dependency structure, and how many breakers participate in the
// memory-budget/spill subsystem (which sizes the query's minimum memory
// grant).
type DAGStats struct {
	// Pipelines and Edges are the DAG's node and dependency-edge counts.
	Pipelines int
	Edges     int
	// SpillableSinks counts pipelines whose breaker can spill (see
	// SinkKind.Spillable) — each needs a minimum grant to run usefully.
	SpillableSinks int
}

// SummarizeDAG computes the scheduler registration record of a decomposed
// plan.
func SummarizeDAG(pipes []*Pipeline) DAGStats {
	var d DAGStats
	d.Pipelines = len(pipes)
	for _, pl := range pipes {
		d.Edges += len(pl.Deps)
		if pl.Sink.Spillable() {
			d.SpillableSinks++
		}
	}
	return d
}

// describe renders one node compactly for pipeline explanations.
func describe(n Node) string {
	switch t := n.(type) {
	case *Scan:
		return fmt.Sprintf("Scan %s", t.Alias)
	case *Join:
		return fmt.Sprintf("%s(%s)", t.Method, t.JoinType)
	default:
		return fmt.Sprintf("%T", n)
	}
}

// Describe renders one pipeline as a single line, e.g.
// "P2: Scan l -> HashJoin(inner) probe(l_orderkey) -> result".
// Probe operators name their hash-key column so batch-level reports
// (hash carry, probe sub-phases) can be read off the pipeline label.
func (pl *Pipeline) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P%d: %s", pl.ID, describe(pl.Source))
	if j, ok := pl.Source.(*Join); ok && j.Method == MergeJoin {
		b.WriteString(" merge")
	}
	for _, op := range pl.Ops {
		fmt.Fprintf(&b, " -> %s probe", describe(op))
		if len(op.Conds) > 0 {
			fmt.Fprintf(&b, "(%s)", op.Conds[0].OuterCol)
		}
	}
	fmt.Fprintf(&b, " -> %s", pl.Sink)
	if len(pl.Deps) > 0 {
		fmt.Fprintf(&b, " (after %s)", depList(pl.Deps))
	}
	return b.String()
}

func depList(deps []int) string {
	parts := make([]string, len(deps))
	for i, d := range deps {
		parts[i] = fmt.Sprintf("P%d", d)
	}
	return strings.Join(parts, ",")
}

// ExplainPipelines renders the pipeline DAG of the plan in execution
// order, one line per pipeline.
func (p *Plan) ExplainPipelines() string {
	pls, err := Decompose(p)
	if err != nil {
		return "pipelines: " + err.Error() + "\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pipelines (%d):\n", len(pls))
	for _, pl := range pls {
		fmt.Fprintf(&b, "  %s\n", pl.Describe())
	}
	return b.String()
}
