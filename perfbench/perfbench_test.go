package main

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bfcbo"
)

func TestGeneratorDeterministicAndParses(t *testing.T) {
	eng, err := bfcbo.Open(bfcbo.Config{ScaleFactor: 0.001, DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := generatePlanJoins(seed), generatePlanJoins(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if len(a) != len(planJoinsMix)*planJoinsRepeats {
			t.Fatalf("seed %d: %d statements, want %d", seed, len(a), len(planJoinsMix)*planJoinsRepeats)
		}
		for _, st := range a {
			blk, err := eng.ParseSQL(st.SQL)
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, st.Name, err, st.SQL)
			}
			if len(blk.Relations) != st.Rels {
				t.Errorf("seed %d %s: %d relations, want %d", seed, st.Name, len(blk.Relations), st.Rels)
			}
		}
	}
	if reflect.DeepEqual(generatePlanJoins(1), generatePlanJoins(2)) {
		t.Error("seeds 1 and 2 generate the same statements")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0}, {20, 0.5, true, 10},
		{199, 0.95, false, 0}, {200, 0.95, true, 190},
		{0, 0.5, false, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, p=%g): err=%v, want ok=%v", c.n, c.p, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
}

func TestFastQuarterMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{9, 1, 5}, 1},
		{[]float64{8, 1, 100, 2, 50, 3, 60, 4}, 1.5},
	} {
		if got := fastQuarterMean(c.xs); got != c.want {
			t.Errorf("fastQuarterMean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestPeakRSSIsMedianOfPasses(t *testing.T) {
	d := &runData{rssMB: 90, rssPeaks: []float64{60, 80, 61}}
	if m := d.peakRSS(); m.value != 61 {
		t.Errorf("peak_rss_mb = %g, want the per-pass median 61", m.value)
	}
	d.rssPeaks = nil
	if m := d.peakRSS(); m.value != 90 || m.note == "" {
		t.Errorf("without per-pass peaks: peak_rss_mb = %g (note %q), want the process peak 90 with a note", m.value, m.note)
	}
}

// syntheticRun is a small measured run: 40 passes of two statements in
// three modes, with enough samples for every percentile.
func syntheticRun() *runData {
	d := &runData{
		stmts:  []statement{{name: "a"}, {name: "b"}},
		wall:   2 * time.Second,
		setups: []float64{1, 2, 3},
		broker: brokerDelta{peak: 8 << 20, budget: 16 << 20},
		plans:  map[cell]planInfo{},
	}
	for pass := 0; pass < 40; pass++ {
		for st := 0; st < 2; st++ {
			for m := range modes {
				c := cell{st, m}
				d.plans[c] = planInfo{kept: 1, estCost: float64(st*3 + m)}
				d.samples = append(d.samples, sample{
					cell: c, pass: pass, traced: pass%2 == 0,
					lat:  time.Duration(1+st*3+m) * time.Millisecond,
					exec: time.Duration(st*3+m) * time.Millisecond,
					plan: 100 * time.Microsecond, scanIn: 10, scanOut: 5, probeIn: 4, hashReused: 2,
					bloomTested: 10, bloomPassed: 1, saturations: []float64{0.1},
					qerrors: []float64{1, 2}, rows: st,
				})
			}
		}
	}
	d.attempts, d.failures = len(d.samples), 0
	return d
}

func TestRatiosReportTheirBase(t *testing.T) {
	d := syntheticRun()
	ms := append(d.endToEnd(), d.perLayer(1)...)
	for _, m := range ms {
		if m.name != "bfcbo_over_bfpost" && !strings.HasSuffix(m.name, "_frac") && m.name != "optimizer.plan_share" {
			continue
		}
		if m.base == nil {
			t.Errorf("%s: no base counts", m.name)
			continue
		}
		if math.Abs(m.base.value()-m.value) > 1e-12 {
			t.Errorf("%s = %g, but its base gives %g", m.name, m.value, m.base.value())
		}
		if s := m.base.String(); !strings.Contains(s, m.base.numName) || !strings.Contains(s, m.base.denName) {
			t.Errorf("%s: base %q does not name its counts", m.name, s)
		}
	}
	for _, m := range ms {
		if m.value < 0 {
			t.Errorf("%s refused on a run with enough samples: %s", m.name, m.note)
		}
	}
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	d := syntheticRun()
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name)
		}
		return out
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range append(names(d.endToEnd()), names(d.perLayer(1))...) {
		if !strings.Contains(string(b), `"name": "`+n+`"`) {
			t.Errorf("metric %s is not declared in BENCHMARK.json", n)
		}
	}
}

func TestSpearman(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if r := spearman(x, []float64{10, 20, 30, 40, 50}); math.Abs(r-1) > 1e-12 {
		t.Errorf("monotone: %g", r)
	}
	if r := spearman(x, []float64{5, 4, 3, 2, 1}); math.Abs(r+1) > 1e-12 {
		t.Errorf("reversed: %g", r)
	}
	if r := spearman(x, []float64{7, 7, 7, 7, 7}); r != 0 {
		t.Errorf("constant: %g", r)
	}
}

func TestSelfTimesAndLayerSum(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	tr := &tracer{}
	cell := tr.add(1, 0, "cell", at(0), at(1000))
	tr.add(1, cell, "sqlparser.parse", at(0), at(100))
	run := tr.add(1, cell, "bfcbo.run", at(100), at(1000))
	tr.add(1, run, "optimizer.plan", at(100), at(300))
	tr.add(1, run, "sched.queue", at(350), at(400))
	ex := tr.add(1, run, "exec", at(400), at(950))
	tr.add(1, ex, "exec.pipeline", at(400), at(700))
	tr.add(1, ex, "exec.pipeline", at(600), at(900))
	self := selfTimes(tr.spans)
	if got, want := self[run], 100*time.Microsecond; got != want {
		t.Errorf("residual = %v, want %v", got, want)
	}
	if got, want := self[ex], 50*time.Microsecond; got != want {
		t.Errorf("exec self = %v, want %v (overlapping pipelines count once)", got, want)
	}
	ls := checkLayerSums(tr.spans)
	if ls.queries != 1 || ls.within != 1 {
		t.Errorf("layer sum: %+v", ls)
	}
	// An engine-reported duration longer than the wall time it sits in
	// must show up as a layer-sum mismatch, not vanish into the residual.
	tr.spans[3].End = at(900)
	if ls := checkLayerSums(tr.spans); ls.within != 0 {
		t.Errorf("overlapping plan and exec passed the layer-sum check: %+v", ls)
	}
}

func TestGradeRowsMarksDisagreement(t *testing.T) {
	stmts := []statement{{name: "a"}}
	samples := []sample{{cell: cell{0, 0}, rows: 5}, {cell: cell{0, 1}, rows: 5}, {cell: cell{0, 2}, rows: 6}}
	gradeRows(stmts, nil, samples)
	if samples[0].wrong || samples[1].wrong || !samples[2].wrong {
		t.Errorf("cross-mode agreement: %+v", samples)
	}
	samples = []sample{{cell: cell{0, 0}, rows: 5}, {cell: cell{0, 1}, rows: 5}}
	gradeRows(stmts, map[string]int{"a": 4}, samples)
	if !samples[0].wrong || !samples[1].wrong {
		t.Errorf("expected count ignored: %+v", samples)
	}
}

func TestCommittedExpectedFiles(t *testing.T) {
	tb, err := loadExpected("expected", workloads[0], 1, workloads[0].statements(1))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadExpected("expected", workloads[2], 1, workloads[2].statements(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb, sp) {
		t.Errorf("tpch-bf and spill-2stream expect different rows:\n%v\n%v", tb, sp)
	}
	files, err := filepath.Glob("expected/plan-joins_*_seed*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no plan-joins expected files (%v)", err)
	}
	pj := workloads[1]
	for seed := uint64(1); seed <= 64; seed++ {
		if _, err := os.Stat(expectedPath("expected", pj, seed)); err != nil {
			continue
		}
		if _, err := loadExpected("expected", pj, seed, pj.statements(seed)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
