package bfcbo

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"bfcbo/internal/obs"
)

// TestTraceSpanTreeDOP1 checks the lifecycle trace of a DOP-1 run: span
// starts are monotone (the Spans() contract), every pipeline span nests
// inside the query span, breaker finishes nest inside their pipeline, and
// the recorded pipeline set matches Output.Pipelines exactly. At DOP 1 the
// pipeline schedule is deterministic, so two runs must record the same
// span names.
func TestTraceSpanTreeDOP1(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no trace on output")
	}
	spans := out.Trace.Spans()
	if len(spans) == 0 {
		t.Fatal("empty trace")
	}
	var query *obs.Span
	pipelines := map[int]obs.Span{} // tid -> pipeline span
	for i := range spans {
		s := spans[i]
		if s.Dur < 0 {
			t.Fatalf("span %q has negative duration %v", s.Name, s.Dur)
		}
		if i > 0 && s.Start.Before(spans[i-1].Start) {
			t.Fatalf("span starts not monotone: %q at %v before %q at %v",
				s.Name, s.Start, spans[i-1].Name, spans[i-1].Start)
		}
		switch s.Cat {
		case "query":
			query = &spans[i]
		case "pipeline":
			pipelines[s.TID] = s
		}
	}
	if query == nil {
		t.Fatal("no query span")
	}
	if len(pipelines) != len(out.Pipelines) {
		t.Fatalf("trace has %d pipeline spans, output has %d pipelines",
			len(pipelines), len(out.Pipelines))
	}
	const eps = 2 * time.Millisecond
	within := func(inner, outer obs.Span) bool {
		return !inner.Start.Before(outer.Start.Add(-eps)) &&
			!inner.Start.Add(inner.Dur).After(outer.Start.Add(outer.Dur+eps))
	}
	for _, s := range spans {
		switch s.Cat {
		case "pipeline":
			if !within(s, *query) {
				t.Fatalf("pipeline span %q [%v +%v] escapes query span [%v +%v]",
					s.Name, s.Start, s.Dur, query.Start, query.Dur)
			}
		case "breaker", "phase":
			pl, ok := pipelines[s.TID]
			if !ok {
				t.Fatalf("%s span %q on tid %d has no pipeline span", s.Cat, s.Name, s.TID)
			}
			if !within(s, pl) {
				t.Fatalf("%s span %q [%v +%v] escapes pipeline span [%v +%v]",
					s.Cat, s.Name, s.Start, s.Dur, pl.Start, pl.Dur)
			}
		}
	}

	// Determinism: a second run at DOP 1 records the same span names.
	names := func(tr *obs.Trace) string {
		var ns []string
		for _, s := range tr.Spans() {
			ns = append(ns, s.Cat+"/"+s.Name)
		}
		return strings.Join(ns, "\n")
	}
	out2, err := e.Run(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(out2.Trace), names(out.Trace); got != want {
		t.Fatalf("DOP-1 span tree not deterministic:\nrun 1:\n%s\nrun 2:\n%s", want, got)
	}

	// The trace exports as a loadable Chrome trace-event file.
	var buf bytes.Buffer
	if err := out.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !obs.IsChromeTrace(buf.Bytes()) {
		t.Fatal("export not recognized as a Chrome trace")
	}
	if err := obs.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsAgreeWithSchedStats cross-checks the engine registry against
// per-query ground truth: the queries counter and latency-histogram count
// match the number of runs, the slot-busy counter matches the summed
// SchedStat occupancy within 1%, and the latency-histogram sum matches the
// summed per-query exec walls within 2% (the histogram's window starts a
// hair inside RunContext's).
func TestMetricsAgreeWithSchedStats(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 6
	var sumWall, sumBusy time.Duration
	for i := 0; i < runs; i++ {
		out, err := e.Run(b, BFCBO)
		if err != nil {
			t.Fatal(err)
		}
		sumWall += out.ExecTime + out.Sched.QueueWait
		sumBusy += out.Sched.SlotBusy
	}
	snap := e.MetricsRegistry().Snapshot()
	if n := snap.Counters["bfcbo_queries_total"]; n != runs {
		t.Fatalf("bfcbo_queries_total = %d, want %d", n, runs)
	}
	lat, ok := snap.Histograms["bfcbo_query_latency_seconds"]
	if !ok {
		t.Fatal("latency histogram missing from snapshot")
	}
	if lat.Count != runs {
		t.Fatalf("latency histogram count = %d, want %d", lat.Count, runs)
	}
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / b * 100 }
	if busy := float64(snap.Counters["bfcbo_slot_busy_nanos_total"]); relErr(busy, float64(sumBusy)) > 1 {
		t.Fatalf("slot-busy counter %.0fns vs summed SchedStat %dns: >1%% apart", busy, sumBusy)
	}
	if relErr(lat.Sum, sumWall.Seconds()) > 2 {
		t.Fatalf("latency histogram sum %.6fs vs summed walls %.6fs: >2%% apart",
			lat.Sum, sumWall.Seconds())
	}
	// Live gauges: an idle engine holds no slots but still reports capacity.
	if got := snap.Gauges["bfcbo_sched_slots"]; got != 4 {
		t.Fatalf("bfcbo_sched_slots = %v, want 4", got)
	}
	if got := snap.Gauges["bfcbo_sched_slots_in_use"]; got != 0 {
		t.Fatalf("bfcbo_sched_slots_in_use = %v on an idle engine", got)
	}
	if got := snap.Counters["bfcbo_sched_finished_total"]; got != runs {
		t.Fatalf("bfcbo_sched_finished_total = %d, want %d", got, runs)
	}

	// The exposition parses under the minimal Prometheus checker.
	var buf bytes.Buffer
	if err := e.MetricsRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintProm(&buf); err != nil {
		t.Fatalf("/metrics output fails lint: %v", err)
	}
}

// TestExplainAnalyzeSchedulerLine: every run holds worker slots leased
// from the scheduler, so EXPLAIN ANALYZE must report the scheduler line
// and a nonzero slot occupancy.
func TestExplainAnalyzeSchedulerLine(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.ExplainAnalyze, "scheduler:") {
		t.Fatalf("EXPLAIN ANALYZE omits scheduler line:\n%s", out.ExplainAnalyze)
	}
	if out.Sched.SlotBusy <= 0 {
		t.Fatalf("run reports no slot occupancy: %+v", out.Sched)
	}
}

// TestFlightRecorderOnEngine: every finished query lands in the recorder
// with its EXPLAIN ANALYZE and trace attached; a negative SlowQueryLog
// disables recording.
func TestFlightRecorderOnEngine(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4, SlowQueryLog: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Run(b, BFCBO); err != nil {
			t.Fatal(err)
		}
	}
	rec := e.FlightRecorder()
	if rec == nil {
		t.Fatal("flight recorder disabled by default config")
	}
	if rec.Len() != 2 {
		t.Fatalf("recorder has %d entries, want 2", rec.Len())
	}
	for _, qr := range rec.Recent() {
		if qr.Explain == "" {
			t.Fatalf("record %d has no EXPLAIN ANALYZE", qr.ID)
		}
		if qr.Trace == nil {
			t.Fatalf("record %d has no trace", qr.ID)
		}
		if qr.Latency <= 0 || qr.Rows <= 0 {
			t.Fatalf("degenerate record: %+v", qr)
		}
		if _, ok := rec.Find(qr.ID); !ok {
			t.Fatalf("Find(%d) missed a retained record", qr.ID)
		}
	}

	off, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4, SlowQueryLog: -1})
	if err != nil {
		t.Fatal(err)
	}
	if off.FlightRecorder() != nil {
		t.Fatal("negative SlowQueryLog should disable the recorder")
	}
	if _, err := off.Run(b, BFCBO); err != nil {
		t.Fatal(err) // nil recorder must not panic the run path
	}
}
