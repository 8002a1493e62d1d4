package main

import (
	"fmt"
	"strings"
	"time"

	"bfcbo"
)

// sample is what the benchmark keeps of one executed query: its latency
// and the per-layer figures the engine returned, copied out of Output.
type sample struct {
	cell
	client, pass int
	traced       bool
	lat          time.Duration // call to Output returned
	build        time.Duration // traced only: block build
	err          error
	wrong        bool // rows differ from the expected count
	rows         int

	plan, queue, exec, slotWait, slotBusy time.Duration
	pipeWall, finishWall                  time.Duration
	sortD, foldD, buildD, bloomD          time.Duration
	scanWall, probeD                      time.Duration
	scanIn, scanOut, probeIn, hashReused  int64
	blooms                                int
	bloomTested, bloomPassed              int64
	saturations, qerrors                  []float64
	spillW, spillR                        int64
	spillParts, spillDepth                int
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// observe copies one Output's figures into the sample.
func (s *sample) observe(out *bfcbo.Output) {
	s.rows = out.Rows
	s.plan, s.exec = out.PlanningTime, out.ExecTime
	s.queue, s.slotWait, s.slotBusy = out.Sched.QueueWait, out.Sched.SlotWait, out.Sched.SlotBusy
	for _, p := range out.Pipelines {
		s.pipeWall += p.Wall
		s.finishWall += p.FinishWall
		s.sortD += p.Phases.Sort
		s.foldD += p.Phases.Fold
		s.buildD += p.Phases.Build
		s.bloomD += p.Phases.Bloom
	}
	for _, op := range out.OpStats {
		if strings.HasPrefix(op.Label, "Scan") {
			s.scanWall += op.Wall
			s.scanIn += op.RowsIn
			s.scanOut += op.RowsOut
		}
		if d := op.Gather + op.Probe + op.Emit; d > 0 {
			s.probeD += d
			s.probeIn += op.RowsIn
			s.hashReused += op.HashReusedKeys
		}
		if op.Node != nil {
			s.qerrors = append(s.qerrors, qerror(op.Node.EstRows(), float64(op.RowsOut)))
		}
	}
	s.blooms = len(out.BloomStats)
	for _, b := range out.BloomStats {
		s.bloomTested += b.Tested
		s.bloomPassed += b.Passed
		s.saturations = append(s.saturations, b.Saturation)
	}
	s.spillW, s.spillR = out.Spill.Bytes, out.Spill.BytesRead
	s.spillParts, s.spillDepth = out.Spill.Partitions, out.Spill.Depth
}

// metric is one reported figure. base is set for ratios.
type metric struct {
	name, unit string
	value      float64
	base       *ratio
	note       string
}

// planInfo is the optimizer's work for one (statement, mode) cell,
// taken from a separate Engine.Plan call on a fresh block.
type planInfo struct {
	kept, pairs, cands int
	estCost            float64
}

// brokerDelta is the memory broker's counters over the measured window.
type brokerDelta struct {
	peak, budget, denials, spillTriggers int64
}

// runData is everything a run measured, as the metric functions see it.
type runData struct {
	stmts    []statement
	samples  []sample // measured passes only, errors included
	spans    []span
	wall     time.Duration
	setups   []float64 // seconds per Open
	rssMB    float64   // process peak, getrusage
	rssPeaks []float64 // per-pass peaks (clientResult.rssPeaks)
	broker   brokerDelta
	plans    map[cell]planInfo // trace mode only
	attempts int               // queries attempted, warm-up included
	failures int               // failed or wrong, warm-up included
}

// passKey names one client's pass.
type passKey struct{ client, pass int }

// perPass sums f over each pass's successful samples and returns the
// median of those per-pass sums.
func (d *runData) perPass(f func(s *sample) float64) float64 {
	sums := map[passKey]float64{}
	for i := range d.samples {
		s := &d.samples[i]
		k := passKey{s.client, s.pass}
		if _, ok := sums[k]; !ok {
			sums[k] = 0
		}
		if s.err == nil {
			sums[k] += f(s)
		}
	}
	vals := make([]float64, 0, len(sums))
	for _, v := range sums {
		vals = append(vals, v)
	}
	return median(vals)
}

// each collects f over successful samples that pass keep (nil keeps all).
func (d *runData) each(keep func(s *sample) bool, f func(s *sample) float64) []float64 {
	var out []float64
	for i := range d.samples {
		s := &d.samples[i]
		if s.err == nil && (keep == nil || keep(s)) {
			out = append(out, f(s))
		}
	}
	return out
}

// pct reports a percentile, or -1 with a note when percentile refuses it.
func pct(name, unit string, xs []float64, p float64) metric {
	v, err := percentile(xs, p)
	if err != nil {
		return metric{name: name, unit: unit, value: -1, note: err.Error()}
	}
	return metric{name: name, unit: unit, value: v}
}

func frac(name string, num, den float64, numName, denName string) metric {
	r := ratio{num: num, den: den, numName: numName, denName: denName}
	return metric{name: name, unit: "ratio", value: r.value(), base: &r}
}

// stmtLatency is one statement's latency in mode m over the run: the
// mean of its fastest quarter of successful samples.
func (d *runData) stmtLatency(stmt, m int) float64 {
	return fastQuarterMean(d.each(func(s *sample) bool { return s.stmt == stmt && s.mode == m },
		func(s *sample) float64 { return ms(s.lat) }))
}

// endToEnd computes the metrics a user of the engine sees.
func (d *runData) endToEnd() []metric {
	lat := d.each(nil, func(s *sample) float64 { return ms(s.lat) })
	var ok int
	for _, s := range d.samples {
		if s.err == nil && !s.wrong {
			ok++
		}
	}
	// A mode's total is Table 2's: one latency per statement, summed.
	// Each statement's latency is the mean of its fastest quarter over
	// the run (see fastQuarterMean), which also keeps a query that
	// happened to overlap the other client's heaviest query from swinging
	// a whole pass's sum.
	total := func(m int) float64 {
		var t float64
		for i := range d.stmts {
			t += d.stmtLatency(i, m)
		}
		return t
	}
	nobf, bfpost, bfcbo := total(0), total(1), total(2)
	over := frac("bfcbo_over_bfpost", bfcbo, bfpost, "bfcbo_total_ms", "bfpost_total_ms")
	return []metric{
		{name: "setup_s", unit: "s", value: median(d.setups)},
		{name: "queries_per_s", unit: "1/s", value: float64(ok) / d.wall.Seconds()},
		pct("latency_p50_ms", "ms", lat, 0.50),
		pct("latency_p95_ms", "ms", lat, 0.95),
		{name: "nobf_total_ms", unit: "ms", value: nobf},
		{name: "bfpost_total_ms", unit: "ms", value: bfpost},
		{name: "bfcbo_total_ms", unit: "ms", value: bfcbo},
		over,
		d.peakRSS(),
	}
}

// peakRSS is the median over passes of each pass's resident-set peak.
// The process-wide peak is one extreme of the whole run and moved by up
// to 20% between runs of the same code with the timing of garbage
// collection; it stands in only where the kernel refused the per-pass
// reset.
func (d *runData) peakRSS() metric {
	if len(d.rssPeaks) == 0 {
		return metric{name: "peak_rss_mb", unit: "MB", value: d.rssMB, note: "process peak: per-pass reset unavailable"}
	}
	return metric{name: "peak_rss_mb", unit: "MB", value: median(d.rssPeaks),
		note: fmt.Sprintf("median of %d per-pass peaks, highest %.1f", len(d.rssPeaks), maxOf(d.rssPeaks))}
}

// perLayer computes the per-layer metrics of a traced run.
func (d *runData) perLayer(untracedP50 float64) []metric {
	const mb = 1 << 20
	all := func(f func(s *sample) float64) []float64 { return d.each(nil, f) }
	sum := func(f func(s *sample) float64) float64 {
		var t float64
		for _, v := range all(f) {
			t += v
		}
		return t
	}
	traced := func(s *sample) bool { return s.traced }

	var kept, pairs, cands float64
	var costs, execs []float64
	for c, pi := range d.plans {
		kept += float64(pi.kept)
		pairs += float64(pi.pairs)
		cands += float64(pi.cands)
		ex := d.each(func(s *sample) bool { return s.cell == c }, func(s *sample) float64 { return ms(s.exec) })
		if len(ex) > 0 {
			costs = append(costs, pi.estCost)
			execs = append(execs, median(ex))
		}
	}
	var qerrs, sats []float64
	for _, s := range d.samples {
		if s.err == nil {
			qerrs = append(qerrs, s.qerrors...)
			sats = append(sats, s.saturations...)
		}
	}
	ls := checkLayerSums(d.spans)
	tracedLat := d.each(traced, func(s *sample) float64 { return ms(s.lat) })
	tracedP50, _ := percentile(tracedLat, 0.5)
	peakOver := 0.0
	if d.broker.budget > 0 {
		peakOver = float64(d.broker.peak) / float64(d.broker.budget)
	}
	passes := float64(d.passes())
	self := func(name string) float64 { return ms(ls.self[name]) / float64(max(ls.queries, 1)) }

	return []metric{
		pct("sqlparser.parse_us_p50", "us", d.each(traced, func(s *sample) float64 { return ms(s.build) * 1e3 }), 0.5),
		pct("optimizer.plan_ms_p50", "ms", all(func(s *sample) float64 { return ms(s.plan) }), 0.5),
		pct("optimizer.plan_ms_p95", "ms", all(func(s *sample) float64 { return ms(s.plan) }), 0.95),
		frac("optimizer.plan_share", sum(func(s *sample) float64 { return ms(s.plan) }),
			sum(func(s *sample) float64 { return ms(s.lat) }), "plan_ms", "latency_ms"),
		{name: "optimizer.plans_kept", unit: "count", value: kept, note: "per pass, every cell planned once"},
		{name: "optimizer.phase1_pairs", unit: "count", value: pairs, note: "per pass"},
		{name: "optimizer.bf_candidates", unit: "count", value: cands, note: "per pass"},
		pct("stats.qerror_p50", "ratio", qerrs, 0.5),
		pct("stats.qerror_p95", "ratio", qerrs, 0.95),
		{name: "cost.exec_rank_corr", unit: "ratio", value: spearman(costs, execs),
			note: fmt.Sprintf("Spearman over %d cells", len(costs))},
		pct("sched.queue_wait_ms_p95", "ms", all(func(s *sample) float64 { return ms(s.queue) }), 0.95),
		{name: "sched.slot_wait_ms_sum", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.slotWait) }), note: "per pass"},
		frac("sched.slot_busy_frac", sum(func(s *sample) float64 { return ms(s.slotBusy) }),
			ms(d.wall)*dop, "slot_busy_ms", "wall_ms_x_dop"),
		{name: "mem.peak_mb", unit: "MB", value: float64(d.broker.peak) / mb},
		{name: "mem.peak_over_budget", unit: "ratio", value: peakOver, note: "0 when the budget is unlimited"},
		{name: "mem.denials", unit: "count", value: float64(d.broker.denials) / passes, note: "per pass"},
		{name: "mem.spill_triggers", unit: "count", value: float64(d.broker.spillTriggers) / passes, note: "per pass"},
		{name: "spill.write_mb", unit: "MB", value: d.perPass(func(s *sample) float64 { return float64(s.spillW) / mb }), note: "per pass"},
		{name: "spill.read_mb", unit: "MB", value: d.perPass(func(s *sample) float64 { return float64(s.spillR) / mb }), note: "per pass"},
		{name: "spill.partitions", unit: "count", value: d.perPass(func(s *sample) float64 { return float64(s.spillParts) }), note: "per pass"},
		{name: "spill.depth_max", unit: "count", value: maxOf(all(func(s *sample) float64 { return float64(s.spillDepth) }))},
		pct("exec.exec_ms_p50", "ms", all(func(s *sample) float64 { return ms(s.exec) }), 0.5),
		{name: "exec.pipeline_ms_sum", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.pipeWall) }), note: "per pass"},
		{name: "exec.finish_ms_sum", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.finishWall) }), note: "per pass"},
		{name: "exec.finish_sort_ms", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.sortD) }), note: "per pass"},
		{name: "exec.fold_ms", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.foldD) }), note: "per pass"},
		{name: "query.scan_ms", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.scanWall) }), note: "per pass, summed over workers"},
		frac("query.scan_pass_frac", sum(func(s *sample) float64 { return float64(s.scanOut) }),
			sum(func(s *sample) float64 { return float64(s.scanIn) }), "scan_rows_out", "scan_rows_in"),
		{name: "hashtab.build_ms", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.buildD) }), note: "per pass"},
		{name: "hashtab.probe_ms", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.probeD) }), note: "per pass, gather+probe+emit"},
		frac("hashtab.hash_reused_frac", sum(func(s *sample) float64 { return float64(s.hashReused) }),
			sum(func(s *sample) float64 { return float64(s.probeIn) }), "hash_reused_keys", "probe_rows_in"),
		{name: "bloom.filters", unit: "count", value: d.perPass(func(s *sample) float64 { return float64(s.blooms) }), note: "per pass"},
		frac("bloom.pass_frac", sum(func(s *sample) float64 { return float64(s.bloomPassed) }),
			sum(func(s *sample) float64 { return float64(s.bloomTested) }), "bloom_passed", "bloom_tested"),
		pct("bloom.saturation_p50", "ratio", sats, 0.5),
		{name: "bloom.build_ms", unit: "ms", value: d.perPass(func(s *sample) float64 { return ms(s.bloomD) }), note: "per pass"},
		{name: "bfcbo.residual_ms", unit: "ms", value: self("bfcbo.run"), note: "mean per traced query"},
		frac("failed_frac", float64(d.failures), float64(d.attempts), "failed_queries", "attempted_queries"),
		{name: "trace.overhead_ms", unit: "ms", value: tracedP50 - untracedP50,
			note: "traced latency_p50_ms minus untraced, alternate passes of this run"},
		frac("trace.layer_sum_within_frac", float64(ls.within), float64(ls.queries), "queries_within_tolerance", "traced_queries"),
	}
}

// passes counts the measured client passes.
func (d *runData) passes() int {
	seen := map[passKey]bool{}
	for _, s := range d.samples {
		seen[passKey{s.client, s.pass}] = true
	}
	return max(len(seen), 1)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// table2 renders the per-statement BF-CBO/BF-Post rows: each mode's
// stmtLatency, the terms of the *_total_ms sums, and their quotient.
// Information only; nothing gates on it.
func (d *runData) table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-16s %10s %10s %10s %9s\n", "statement", "nobf_ms", "bfpost_ms", "bfcbo_ms", "cbo/post")
	for i := range d.stmts {
		var lat [3]float64
		for m := range modes {
			lat[m] = d.stmtLatency(i, m)
		}
		r := 0.0
		if lat[1] > 0 {
			r = lat[2] / lat[1]
		}
		fmt.Fprintf(&b, "  %-16s %10.3f %10.3f %10.3f %9.3f\n", d.stmts[i].name, lat[0], lat[1], lat[2], r)
	}
	return b.String()
}
