// Command perfbench is the engine's benchmark. It opens an engine,
// drives one workload through the public bfcbo API in a closed loop,
// checks every result's row count, and prints every metric by name and
// unit; the last line of its output is one JSON object. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload tpch-bf --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"bfcbo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect fails a run whose results did not all pass the row-count
// gate, after its report has been printed.
var errIncorrect = errors.New("some queries failed or returned wrong row counts")

// expectedDir holds the committed row counts, relative to the
// repository root the benchmark runs from.
const expectedDir = "perfbench/expected"

func run() error {
	var (
		name      = flag.String("workload", "", "workload to run: tpch-bf, plan-joins or spill-2stream")
		seed      = flag.Uint64("seed", 1, "workload seed: statement generation and pass order")
		seconds   = flag.Int("seconds", 30, "measured seconds (each client finishes the pass it is in)")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		outDir    = flag.String("out-dir", ".bench_build", "directory for spill files and spans")
		writeExp  = flag.Bool("write-expected", false, "run one pass, check modes agree, and write the expected row-count file")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	trace := *traceFlag == 1
	spillDir := filepath.Join(*outDir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)

	rc := newRunContext(w, *seed, *seconds, trace)
	stmts := w.statements(*seed)
	var expected map[string]int
	if !*writeExp {
		if expected, err = loadExpected(expectedDir, w, *seed, stmts); err != nil {
			return err
		}
	}

	// Set-up: Open (data generation included) several times, each from
	// a collected heap, keep the last engine, report the median.
	cfg := bfcbo.Config{ScaleFactor: w.sf, DOP: dop, MemBudget: w.budget, SpillDir: spillDir}
	var eng *bfcbo.Engine
	var setups []float64
	for i := 0; i < w.setups; i++ {
		eng = nil
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		if eng, err = bfcbo.Open(cfg); err != nil {
			return fmt.Errorf("open: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	r := &runner{w: w, eng: eng, stmts: stmts, seed: *seed}
	warm := r.warmUp()
	if *writeExp {
		return recordExpected(expectedDir, w, *seed, stmts, warm)
	}
	var plans map[cell]planInfo
	if trace {
		if plans, err = r.planAll(); err != nil {
			return err
		}
	}
	broker := eng.MemoryBroker()
	den0, trig0 := broker.Denials(), broker.SpillTriggers()
	epoch := time.Now()
	results, wall := r.measure(*seconds, trace)
	d := &runData{
		stmts: stmts, wall: wall, setups: setups, rssMB: peakRSSMB(), plans: plans,
		broker: brokerDelta{peak: broker.Peak(), budget: broker.Budget(),
			denials: broker.Denials() - den0, spillTriggers: broker.SpillTriggers() - trig0},
	}
	for _, cr := range results {
		d.samples = append(d.samples, cr.samples...)
		d.spans = append(d.spans, cr.spans...)
		d.rssPeaks = append(d.rssPeaks, cr.rssPeaks...)
	}

	// Correctness: every result against the expected count (or, with no
	// file, against the count the modes agree on), warm-up included.
	all := append(append([]sample(nil), warm...), d.samples...)
	gradeRows(stmts, expected, all)
	copy(d.samples, all[len(warm):])
	d.attempts = len(all)
	for _, s := range all {
		if s.err != nil || s.wrong {
			d.failures++
			if s.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s/%s: %v\n", stmts[s.stmt].name, modes[s.mode], s.err)
			} else {
				fmt.Fprintf(os.Stderr, "perfbench: %s/%s: wrong row count %d\n", stmts[s.stmt].name, modes[s.mode], s.rows)
			}
		}
	}

	var metrics []metric
	if trace {
		untraced := d.each(func(s *sample) bool { return !s.traced }, func(s *sample) float64 { return ms(s.lat) })
		p50, _ := percentile(untraced, 0.5)
		metrics = d.perLayer(p50)
	} else {
		metrics = d.endToEnd()
	}
	for _, m := range metrics {
		if m.value < 0 && !trace {
			return fmt.Errorf("metric %s: %s", m.name, m.note)
		}
	}
	var selfTimes, spanPath string
	if trace {
		ls := checkLayerSums(d.spans)
		selfTimes = formatSelf(ls.self, ls.queries)
		spanPath = filepath.Join(*outDir, fmt.Sprintf("perfbench-spans-%s-seed%d.json", w.name, *seed))
		if err := writeSpans(spanPath, epoch, d.spans); err != nil {
			return err
		}
	}
	printReport(rc, metrics, d)
	if trace {
		fmt.Printf("self time per layer (traced queries):\n%sspans written to %s\n", selfTimes, spanPath)
	}

	correct := d.failures == 0
	last := map[string]any{"correct": correct, "attempted": d.attempts, "failed": d.failures}
	out := map[string]map[string]any{}
	for _, m := range metrics {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	last["metrics"] = out
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !correct {
		return errIncorrect
	}
	return nil
}

// printReport prints the run context, every metric with the counts
// behind each ratio, and the per-statement Table 2.
func printReport(rc runContext, metrics []metric, d *runData) {
	ctx, _ := json.Marshal(rc)
	fmt.Printf("context %s\n", ctx)
	fmt.Printf("queries %d measured (%d passes), %d attempted with warm-up, %d failed; wall %.3f s\n",
		len(d.samples), d.passes(), d.attempts, d.failures, d.wall.Seconds())
	for _, m := range metrics {
		line := fmt.Sprintf("%-30s %14.6f %s", m.name, m.value, m.unit)
		if m.base != nil {
			line += "  (" + m.base.String() + ")"
		}
		if m.note != "" {
			line += "  [" + m.note + "]"
		}
		fmt.Println(line)
	}
	fmt.Printf("per-statement latency, mean of the fastest quarter (information only):\n%s", d.table2())
}

// planAll plans every cell once on a fresh block to read the optimizer's
// work counters and the chosen plan's estimated cost.
func (r *runner) planAll() (map[cell]planInfo, error) {
	out := map[cell]planInfo{}
	for si, st := range r.stmts {
		for mi, m := range modes {
			pi, err := r.planCell(st, m)
			if err != nil {
				return nil, fmt.Errorf("plan %s/%s: %w", st.name, m, err)
			}
			out[cell{si, mi}] = pi
		}
	}
	return out, nil
}

func (r *runner) planCell(st statement, m bfcbo.Mode) (planInfo, error) {
	if st.sql != "" {
		b, err := r.eng.ParseSQL(st.sql)
		if err != nil {
			return planInfo{}, err
		}
		res, err := r.eng.Plan(b, m)
		if err != nil {
			return planInfo{}, err
		}
		return planInfo{res.PlansKept, res.Phase1Pairs, res.Candidates, res.Plan.Root.EstCost()}, nil
	}
	b, err := r.eng.TPCH(st.tpch)
	if err != nil {
		return planInfo{}, err
	}
	res, err := r.eng.Plan(b, m)
	if err != nil {
		return planInfo{}, err
	}
	return planInfo{res.PlansKept, res.Phase1Pairs, res.Candidates, res.Plan.Root.EstCost()}, nil
}

// recordExpected writes the expected row-count file from the warm-up
// pass, refusing when any query failed or the modes disagree.
func recordExpected(dir string, w workload, seed uint64, stmts []statement, warm []sample) error {
	rows := map[string]int{}
	for _, s := range warm {
		name := stmts[s.stmt].name
		if s.err != nil {
			return fmt.Errorf("%s/%s: %w", name, modes[s.mode], s.err)
		}
		if prev, ok := rows[name]; ok && prev != s.rows {
			return fmt.Errorf("%s: modes disagree (%d vs %d rows)", name, prev, s.rows)
		}
		rows[name] = s.rows
	}
	path, err := writeExpected(dir, w, seed, stmts, rows)
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
