package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"bfcbo"
)

// dop is the degree of parallelism of every workload: the worker-slot
// pool of a 2-vCPU host. The engine's default of 8 would oversubscribe it.
const dop = 2

// tpchQueries is the paper's Table 2 set (internal/tpch.Analyzed).
var tpchQueries = []int{2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 16, 17, 18, 19, 20, 21}

// modes are the three optimizer strategies every statement runs under.
var modes = []bfcbo.Mode{bfcbo.NoBF, bfcbo.BFPost, bfcbo.BFCBO}

// workload is one benchmark input set.
type workload struct {
	name    string
	sf      float64
	budget  int64 // Config.MemBudget, 0 = unlimited
	clients int   // concurrent closed-loop clients
	setups  int   // Opens timed for setup_s
	// sql selects RunSQLContext on generated text; otherwise statements
	// are TPC-H query numbers run through Engine.TPCH + RunContext.
	sql bool
}

var workloads = []workload{
	// The paper's Table 2 in memory: execution-bound (scans, Bloom
	// filters, hash joins); planning, admission and spill sit idle.
	{name: "tpch-bf", sf: 0.5, clients: 1, setups: 3},
	// Generated 4-8 way joins on small data: parse and plan dominate.
	{name: "plan-joins", sf: 0.01, clients: 1, setups: 25, sql: true},
	// Table 2 from two clients under a budget: admission, broker, spill.
	// 64 MB, not 16: two clients under 16 MB wrote 12-16k spill files a
	// pass at repartition depth 6, and the run-to-run spread of every
	// end-to-end metric was 18-60%. At 64 MB both clients still spill
	// (about 110 MB and 700 files a pass) and runs agree within 4-10%.
	{name: "spill-2stream", sf: 0.5, budget: 64 << 20, clients: 2, setups: 3},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// statement is one query of a workload: a TPC-H number or SQL text.
type statement struct {
	name string
	tpch int
	sql  string
}

// statements returns the workload's statements for a seed. TPC-H
// workloads ignore the seed here (it only orders their passes).
func (w workload) statements(seed uint64) []statement {
	if !w.sql {
		out := make([]statement, len(tpchQueries))
		for i, q := range tpchQueries {
			out[i] = statement{name: fmt.Sprintf("Q%d", q), tpch: q}
		}
		return out
	}
	gen := generatePlanJoins(seed)
	out := make([]statement, len(gen))
	for i, g := range gen {
		out[i] = statement{name: g.Name, sql: g.SQL}
	}
	return out
}

// cell is one (statement, mode) pair.
type cell struct{ stmt, mode int }

// passOrder returns every cell once, shuffled by (seed, client, pass).
func passOrder(nStmts int, seed uint64, client, pass int) []cell {
	cells := make([]cell, 0, nStmts*len(modes))
	for s := 0; s < nStmts; s++ {
		for m := range modes {
			cells = append(cells, cell{s, m})
		}
	}
	r := rand.New(rand.NewPCG(seed, uint64(client)<<32|uint64(pass)))
	r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// queryTimeout bounds one query, so a hung query fails the run instead
// of stalling it.
const queryTimeout = 60 * time.Second

// runner drives one opened engine through a workload's statements.
type runner struct {
	w     workload
	eng   *bfcbo.Engine
	stmts []statement
	seed  uint64
}

// runCell executes one query and returns its observations. With a
// tracer it also records the query's spans.
func (r *runner) runCell(c cell, client, pass, qid int, tr *tracer) sample {
	st, mode := r.stmts[c.stmt], modes[c.mode]
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	var (
		out                *bfcbo.Output
		err                error
		buildEnd, runStart time.Time
		buildName          = "tpch.build"
	)
	start := time.Now()
	switch {
	case st.sql != "" && tr == nil:
		out, err = r.eng.RunSQLContext(ctx, st.sql, mode)
	case st.sql != "":
		// RunSQLContext is ParseSQL then RunContext; split it to time
		// the parser.
		buildName = "sqlparser.parse"
		b, perr := r.eng.ParseSQL(st.sql)
		buildEnd = time.Now()
		runStart = buildEnd
		if err = perr; err == nil {
			out, err = r.eng.RunContext(ctx, b, mode)
		}
	default:
		b, berr := r.eng.TPCH(st.tpch)
		buildEnd = time.Now()
		runStart = buildEnd
		if err = berr; err == nil {
			out, err = r.eng.RunContext(ctx, b, mode)
		}
	}
	end := time.Now()
	s := sample{cell: c, client: client, pass: pass, lat: end.Sub(start), err: err, traced: tr != nil}
	if err != nil {
		return s
	}
	s.observe(out)
	if tr != nil {
		s.build = buildEnd.Sub(start)
		tr.traceCell(qid, buildName, start, buildEnd, runStart, end, out)
	}
	return s
}

// clientResult is what one closed-loop client produced.
type clientResult struct {
	samples []sample
	spans   []span
	// rssPeaks is the resident-set high-water mark of each of client 0's
	// passes (VmHWM reset at the pass start), empty for other clients or
	// when the kernel refuses the reset.
	rssPeaks []float64
}

// minSamples is the fewest measured queries of a run: enough for a p95
// with ten samples beyond it.
const minSamples = 200

// measure runs every client in a closed loop until the deadline and
// until the clients together have minSamples queries, each finishing the
// pass it is in, and returns their samples and the wall
// time from start to the last client's end. With trace set, even passes
// are traced and odd ones are not, so one run yields both the per-layer
// spans and the tracing overhead. Client 0 also records each of its
// passes' resident-set peak; with more clients its passes are the
// windows, each overlapping about one pass of every other client.
func (r *runner) measure(seconds int, trace bool) ([]clientResult, time.Duration) {
	results := make([]clientResult, r.w.clients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			tr := &tracer{nextID: client << 40}
			res := &results[client]
			qid := client << 32
			for pass := 0; pass == 0 || time.Now().Before(deadline) || len(res.samples) < minSamples/r.w.clients; pass++ {
				var t *tracer
				if trace && pass%2 == 0 {
					t = tr
				}
				rss := client == 0 && resetPeakRSS()
				for _, c := range passOrder(len(r.stmts), r.seed, client, pass) {
					qid++
					res.samples = append(res.samples, r.runCell(c, client, pass, qid, t))
				}
				if rss {
					if peak, ok := readPeakRSSMB(); ok {
						res.rssPeaks = append(res.rssPeaks, peak)
					}
				}
			}
			res.spans = tr.spans
		}(c)
	}
	wg.Wait()
	return results, time.Since(start)
}

// warmUp runs one untimed pass so lazily built dictionaries, zone maps
// and pools exist before timing starts.
func (r *runner) warmUp() []sample {
	var out []sample
	warm := r.w.clients // a client number no measuring client uses
	for _, c := range passOrder(len(r.stmts), r.seed, warm, 0) {
		out = append(out, r.runCell(c, warm, 0, 0, nil))
	}
	return out
}
