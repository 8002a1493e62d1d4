package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"bfcbo"
)

// span is one traced interval. Spans of one query share qid; parent is
// the id of the enclosing span, 0 at the root.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	QID    int       `json:"qid"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

// tracer keeps the spans of one client in memory until the run ends.
type tracer struct {
	spans  []span
	nextID int
}

func (t *tracer) add(qid, parent int, name string, start, end time.Time) int {
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, QID: qid, Name: name, Start: start, End: end})
	return t.nextID
}

// traceCell records the spans of one query. The benchmark timed the
// whole cell, the block build and the RunContext call itself; everything
// inside RunContext is rebuilt from what the engine returned:
//
//   - optimizer.plan starts when RunContext is entered and lasts
//     Output.PlanningTime;
//   - exec ends where the engine's own "query" trace span ends and lasts
//     Output.ExecTime, with sched.queue (Sched.QueueWait) just before it;
//   - the engine's pipeline, breaker-finish and phase spans sit under exec
//     at their recorded times.
//
// Whatever of the RunContext call is left uncovered is bfcbo.run's self
// time: the engine residual.
func (t *tracer) traceCell(qid int, buildName string, cellStart, buildEnd, runStart, runEnd time.Time, out *bfcbo.Output) {
	cell := t.add(qid, 0, "cell", cellStart, runEnd)
	t.add(qid, cell, buildName, cellStart, buildEnd)
	run := t.add(qid, cell, "bfcbo.run", runStart, runEnd)
	planEnd := runStart.Add(out.PlanningTime)
	t.add(qid, run, "optimizer.plan", runStart, planEnd)

	engineSpans := out.Trace.Spans()
	execEnd := runEnd
	for _, s := range engineSpans {
		if s.Cat == "query" {
			execEnd = s.Start.Add(s.Dur)
		}
	}
	execStart := execEnd.Add(-out.ExecTime)
	queueStart := execStart.Add(-out.Sched.QueueWait)
	if queueStart.Before(planEnd) {
		// The engine's clocks and ours disagree by the few microseconds
		// between its return and our timestamp; never overlap the plan.
		shift := planEnd.Sub(queueStart)
		queueStart, execStart, execEnd = planEnd, execStart.Add(shift), execEnd.Add(shift)
	}
	t.add(qid, run, "sched.queue", queueStart, execStart)
	exec := t.add(qid, run, "exec", execStart, execEnd)

	// Engine spans: one lane (TID) per pipeline; finish and phase spans
	// nest under the pipeline of their lane.
	lane := map[int]int{}
	finish := map[int]int{}
	for _, s := range engineSpans {
		end := s.Start.Add(s.Dur)
		switch s.Cat {
		case "pipeline":
			lane[s.TID] = t.add(qid, exec, "exec.pipeline", s.Start, end)
		case "breaker":
			if p, ok := lane[s.TID]; ok {
				finish[s.TID] = t.add(qid, p, "exec.finish", s.Start, end)
			}
		case "phase":
			if f, ok := finish[s.TID]; ok {
				t.add(qid, f, "exec.finish."+s.Name, s.Start, end)
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part of it that its
// children cover (children clipped to the parent, overlaps merged).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End.Sub(s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// Layer-sum tolerance: a query's parse + plan + queue + exec + residual
// must be within max(layerSumTolAbs, layerSumTolRel × latency) of its
// end-to-end latency. The difference is the benchmark's own time between
// calls.
const (
	layerSumTolAbs = 100 * time.Microsecond
	layerSumTolRel = 0.02
)

// layerSum is the outcome of the layer-sum check over all traced queries.
type layerSum struct {
	queries, within int
	self            map[string]time.Duration // self time per layer name
}

// checkLayerSums sums each layer's self time and counts the queries whose
// parse + plan + queue + exec + residual is within tolerance of their
// latency.
func checkLayerSums(spans []span) layerSum {
	self := selfTimes(spans)
	ls := layerSum{self: map[string]time.Duration{}}
	type acc struct{ layers, e2e time.Duration }
	perQ := map[int]*acc{}
	for _, s := range spans {
		ls.self[s.Name] += self[s.ID]
		a := perQ[s.QID]
		if a == nil {
			a = &acc{}
			perQ[s.QID] = a
		}
		switch s.Name {
		case "cell":
			a.e2e = s.End.Sub(s.Start)
		case "bfcbo.run":
			a.layers += self[s.ID] // the residual
		case "optimizer.plan", "sched.queue", "exec", "sqlparser.parse", "tpch.build":
			a.layers += s.End.Sub(s.Start)
		}
	}
	for _, a := range perQ {
		ls.queries++
		tol := max(layerSumTolAbs, time.Duration(layerSumTolRel*float64(a.e2e)))
		if d := a.e2e - a.layers; d <= tol && d >= -tol {
			ls.within++
		}
	}
	return ls
}

// writeSpans writes every span as one JSON array, times in microseconds
// from the run's start.
func writeSpans(path string, epoch time.Time, spans []span) error {
	type rec struct {
		span
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
	}
	out := make([]rec, len(spans))
	for i, s := range spans {
		out[i] = rec{s, float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3, float64(s.End.Sub(epoch).Nanoseconds()) / 1e3}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// formatSelf renders the per-layer self-time table, largest first.
func formatSelf(self map[string]time.Duration, queries int) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-24s %10.3f ms total  %9.4f ms/query\n", n,
			ms(self[n]), ms(self[n])/float64(max(queries, 1)))
	}
	return b.String()
}
