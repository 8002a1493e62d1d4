// Command bench regenerates the paper's tables and figures on the
// in-memory TPC-H substrate.
//
//	bench -experiment table2   # Table 2 + Fig. 5: No-BF vs BF-Post vs BF-CBO
//	bench -experiment table3   # Table 3: same with Heuristic 7 enabled
//	bench -experiment fig1     # Figure 1: Q12 plan analysis
//	bench -experiment fig6     # Figure 6: Q7 plan analysis
//	bench -experiment fig4     # Figure 4: §3 running example on TPC-H Q12-like shape
//	bench -experiment naive    # §3.1 naive planning-time blow-up
//	bench -experiment mae      # Table 2's cardinality-MAE comparison
//	bench -experiment ablation # per-heuristic ablation
//	bench -experiment scaling  # DOP {1,2,4,8} executor scaling on Bloom-heavy queries
//	bench -experiment memory   # memory-budget × DOP spill grid (BENCH_PR3.json)
//	bench -experiment concurrency # multi-stream throughput grid (BENCH_PR4.json)
//	bench -experiment observability # metrics-vs-stats agreement + trace export (BENCH_PR8.json)
//	bench -experiment workload # live-inspector + fingerprint-history audit (BENCH_PR9.json)
//	bench -experiment faults   # fault-injection chaos + disabled-injector anchors (BENCH_PR10.json)
//	bench -experiment all      # everything
//
// A global -mem-budget (e.g. "64MB") constrains the executor in every
// experiment; -validate <path> checks a memory, concurrency,
// observability, workload or faults report, or a Chrome trace-event file
// (dispatching on content), and exits. -streams narrows the concurrency
// grid. -obs-listen serves the workload experiment's live endpoints
// (/debug/queries/live, /debug/workload, /debug/pprof/) while its streams
// run, so they can be scraped mid-bench.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"bfcbo/internal/bench"
	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.02, "TPC-H scale factor")
		seed     = flag.Uint64("seed", 2025, "data generation seed")
		dop      = flag.Int("dop", 8, "degree of parallelism")
		reps     = flag.Int("reps", 3, "repetitions per query (first is warm-up)")
		exp      = flag.String("experiment", "all", "table2|table3|fig1|fig6|naive|mae|ablation|scaling|memory|concurrency|observability|workload|faults|all")
		jout     = flag.String("json", "", "machine-readable report path (default: BENCH_PR<n>.json of the experiment's report; empty = default, \"-\" disables)")
		budget   = flag.String("mem-budget", "", `executor memory budget for all experiments, e.g. "64MB" (empty = unlimited)`)
		streams  = flag.String("streams", "", `concurrency experiment stream counts, e.g. "1,2,4,8" (empty = default; the streams=1 anchor and one multi-stream cell are always included)`)
		iters    = flag.Int("iters", 0, "concurrency experiment queries per stream (0 = default)")
		validate = flag.String("validate", "", "validate a report or Chrome trace at this path and exit")
		obsAddr  = flag.String("obs-listen", "", `serve the workload experiment's observability endpoints on this address (e.g. "127.0.0.1:8099") while it runs`)
	)
	flag.Parse()
	if *validate != "" {
		// Chrome trace-event files have no report wrapper — sniff and check
		// them before the report dispatch.
		if data, err := os.ReadFile(*validate); err == nil && obs.IsChromeTrace(data) {
			if err := obs.ValidateChrome(data); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Printf("%s: well-formed Chrome trace\n", *validate)
			return
		}
		kind, check := "memory report", bench.ValidateMemoryJSON
		switch {
		case bench.IsFaultsReport(*validate):
			kind, check = "faults report", bench.ValidateFaultsJSON
		case bench.IsWorkloadReport(*validate):
			kind, check = "workload report", bench.ValidateWorkloadJSON
		case bench.IsObservabilityReport(*validate):
			kind, check = "observability report", bench.ValidateObservabilityJSON
		case bench.IsConcurrencyReport(*validate):
			kind, check = "concurrency report", bench.ValidateConcurrencyJSON
		}
		if err := check(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: well-formed %s\n", *validate, kind)
		return
	}
	if err := run(*sf, *seed, *dop, *reps, *exp, *jout, *budget, *streams, *iters, *obsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// parseInts parses a comma-separated int list ("" = nil).
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad int list %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(sf float64, seed uint64, dop, reps int, exp, jsonPath, budget, streamsList string, iters int, obsAddr string) error {
	memBudget, err := mem.ParseBytes(budget)
	if err != nil {
		return err
	}
	mk := func(h7 bool) (*bench.Harness, error) {
		return bench.NewHarness(bench.Config{
			ScaleFactor: sf, Seed: seed, DOP: dop, Reps: reps, Heuristic7: h7,
			MemBudget: memBudget,
		})
	}
	// Per-experiment default report paths; "-" disables JSON output. Under
	// -experiment all every report keeps its default path — a single
	// explicit -json would make table2 and memory clobber each other.
	allMode := exp == "all"
	pathFor := func(def string) string {
		switch {
		case jsonPath == "-":
			return ""
		case jsonPath == "" || allMode:
			return def
		default:
			return jsonPath
		}
	}
	w := os.Stdout

	runTable2 := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		t, err := h.RunTable2(nil)
		if err != nil {
			return err
		}
		t.Print(w, fmt.Sprintf("Table 2 / Figure 5 — normalized TPC-H latencies (SF %g, DOP %d)", sf, dop))
		var scaling []bench.ScalingRow
		if out := pathFor("BENCH_PR2.json"); out != "" {
			// The JSON report carries the DOP scaling table alongside the
			// Table 2 cells so one file tracks the PR's perf trajectory.
			scaling, err = h.RunScaling(nil, nil)
			if err != nil {
				return err
			}
			bench.PrintScaling(w, scaling)
			if err := h.WriteJSON(out, t, scaling); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", out)
		}
		return nil
	}
	runMemory := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		// A global -mem-budget narrows the grid to {unlimited, that budget}
		// instead of the default budget sweep.
		var budgets []int64
		if memBudget > 0 {
			budgets = []int64{0, memBudget}
		}
		rows, err := h.RunMemory(nil, nil, budgets)
		if err != nil {
			return err
		}
		bench.PrintMemory(w, rows)
		if out := pathFor("BENCH_PR3.json"); out != "" {
			if err := h.WriteMemoryJSON(out, rows); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", out)
		}
		return nil
	}
	runConcurrency := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		streams, err := parseInts(streamsList)
		if err != nil {
			return err
		}
		rows, single, err := h.RunConcurrency(nil, streams, nil, iters)
		if err != nil {
			return err
		}
		bench.PrintConcurrency(w, rows)
		if out := pathFor("BENCH_PR4.json"); out != "" {
			if err := h.WriteConcurrencyJSON(out, rows, single); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", out)
		}
		return nil
	}
	runObservability := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		rep, traces, err := h.RunObservability(nil, 4, iters)
		if err != nil {
			return err
		}
		bench.PrintObservability(w, rep)
		if out := pathFor("BENCH_PR8.json"); out != "" {
			if err := h.WriteObservabilityJSON(out, rep); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", out)
			// The final repetition's traces ride along as a Chrome
			// trace-event file next to the report.
			tracePath := strings.TrimSuffix(out, ".json") + "_trace.json"
			f, err := os.Create(tracePath)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeAll(f, traces); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", tracePath)
		}
		return nil
	}
	runWorkload := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		// The sinks are created up front so -obs-listen can serve them while
		// the experiment's streams are still running — the CI smoke curls
		// /debug/queries/live, /debug/workload and /debug/pprof/profile
		// mid-bench.
		sinks := &bench.ObsSinks{
			Registry:  obs.NewRegistry(),
			Inspector: obs.NewInspector(),
			Workload:  obs.NewWorkloadStore(0),
		}
		if obsAddr != "" {
			srv := &http.Server{Addr: obsAddr, Handler: &obs.Handler{
				Registry: sinks.Registry, Inspector: sinks.Inspector, Workload: sinks.Workload,
			}}
			lnErr := make(chan error, 1)
			go func() {
				err := srv.ListenAndServe()
				if err == http.ErrServerClosed {
					err = nil
				}
				lnErr <- err
			}()
			select {
			case err := <-lnErr:
				if err == nil {
					err = fmt.Errorf("server closed before serving")
				}
				return fmt.Errorf("obs-listen: %w", err)
			case <-time.After(50 * time.Millisecond):
				fmt.Fprintf(w, "serving observability on http://%s/ during the workload experiment\n", obsAddr)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					fmt.Fprintf(os.Stderr, "bench: obs-listen shutdown: %v\n", err)
				}
				<-lnErr
			}()
		}
		rep, err := h.RunWorkload(nil, 4, iters, sinks)
		if err != nil {
			return err
		}
		bench.PrintWorkload(w, rep)
		if out := pathFor("BENCH_PR9.json"); out != "" {
			if err := bench.WriteWorkloadJSON(out, rep); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", out)
		}
		return nil
	}
	runFaults := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		rep, err := h.RunFaults(nil, 4, iters)
		if err != nil {
			return err
		}
		bench.PrintFaults(w, rep)
		if out := pathFor("BENCH_PR10.json"); out != "" {
			if err := bench.WriteFaultsJSON(out, rep); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", out)
		}
		return nil
	}
	runScaling := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		rows, err := h.RunScaling(nil, nil)
		if err != nil {
			return err
		}
		bench.PrintScaling(w, rows)
		return nil
	}
	runTable3 := func() error {
		h, err := mk(true)
		if err != nil {
			return err
		}
		t, err := h.RunTable2(nil)
		if err != nil {
			return err
		}
		t.Print(w, fmt.Sprintf("Table 3 — Heuristic 7 enabled (SF %g, DOP %d)", sf, dop))
		return nil
	}
	runFig := func(q int, label string) error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", label)
		return h.FigureReport(w, q)
	}
	runNaive := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		rows, err := h.RunNaiveBlowup(3, 6, 2_000_000)
		if err != nil {
			return err
		}
		bench.PrintNaive(w, rows)
		return nil
	}
	runMAE := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		t, err := h.RunTable2(nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cardinality estimation MAE (intermediate plan nodes)\n")
		fmt.Fprintf(w, "%-4s %14s %14s\n", "Q#", "BF-Post", "BF-CBO")
		for _, r := range t.Rows {
			fmt.Fprintf(w, "%-4d %14.1f %14.1f\n", r.Query, r.MAEPost, r.MAECBO)
		}
		fmt.Fprintf(w, "mean: BF-Post %.4g  BF-CBO %.4g  improvement %.1f%%\n",
			t.MeanMAEPost, t.MeanMAECBO, t.MAEImprovementPct)
		return nil
	}
	runAblation := func() error {
		h, err := mk(false)
		if err != nil {
			return err
		}
		rows, err := h.RunAblation(nil)
		if err != nil {
			return err
		}
		bench.PrintAblation(w, rows)
		return nil
	}

	switch exp {
	case "table2":
		return runTable2()
	case "table3":
		return runTable3()
	case "fig1":
		return runFig(12, "Figure 1 — TPC-H Q12 join order with/without BF-CBO")
	case "fig6":
		return runFig(7, "Figure 6 — TPC-H Q7 join order and predicate transfer")
	case "fig4":
		return runFig(12, "Figure 4 — running-example shape (Q12 as the 2-join instance)")
	case "naive":
		return runNaive()
	case "mae":
		return runMAE()
	case "ablation":
		return runAblation()
	case "scaling":
		return runScaling()
	case "memory":
		return runMemory()
	case "concurrency":
		return runConcurrency()
	case "observability":
		return runObservability()
	case "workload":
		return runWorkload()
	case "faults":
		return runFaults()
	case "all":
		// runTable2 already covers the DOP scaling table in its JSON report.
		for _, f := range []func() error{runTable2, runTable3,
			func() error { return runFig(12, "Figure 1 — Q12") },
			func() error { return runFig(7, "Figure 6 — Q7") },
			runNaive, runMAE, runAblation, runMemory, runConcurrency, runObservability, runWorkload, runFaults} {
			if err := f(); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
