package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"bfcbo/internal/faults"
	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/spill"
)

// This file is the morsel-driven pipeline driver. Pipelines (decomposed by
// internal/plan) form a DAG: a probe pipeline depends on its build / sort /
// materialize producers and on the hash-build pipelines that populate the
// Bloom filters its source scan applies — and nothing else. The scheduler
// runs every ready pipeline concurrently under a global worker budget of
// DOP slots shared across pipelines. Within a pipeline, workers each own a
// private operator chain rooted at a shared morsel source and push batches
// into a thread-safe sink. Sinks are the pipeline breakers — hash-table
// build (+ Bloom filter population), sort for merge join, nested-loop
// materialization, result collection, streaming aggregation — and their
// finish phases are themselves parallel, so the executor has no
// single-threaded breaker tail (the Amdahl bottleneck §3.9's parallel
// build strategies are designed to avoid).

// errCanceled marks a pipeline that wound down because another pipeline's
// failure set the run-wide stop flag; it is never surfaced to callers.
var errCanceled = errors.New("exec: run canceled by concurrent pipeline failure")

// errSlotLost marks a worker whose yielded slot could not be re-acquired
// because the run was canceled while it waited; the worker exits holding
// no slot and the error is never surfaced (stop is already set and the
// first real error recorded).
var errSlotLost = errors.New("exec: worker slot lost to run cancellation")

// fail records the run's first real error, cancels every morsel source,
// and wakes workers blocked on slot acquisition or spill barriers.
func (ex *executor) fail(err error) {
	ex.smu.Lock()
	if ex.firstErr == nil {
		ex.firstErr = err
	}
	ex.smu.Unlock()
	ex.stop.Store(true)
	ex.stopOnce.Do(func() { close(ex.stopCh) })
}

// runErr returns the first recorded error of the run.
func (ex *executor) runErr() error {
	ex.smu.Lock()
	defer ex.smu.Unlock()
	return ex.firstErr
}

// sink consumes a pipeline's output batches. consume is called
// concurrently by workers (disjoint worker indices) and must finish with
// the batch before returning — batches are operator-owned scratch (see
// Batch); finish runs once after all workers complete; phases reports the
// breaker's measured finish-phase wall times after finish.
type sink interface {
	consume(worker int, b *Batch)
	finish() error
	phases() BreakerPhases
}

// partsSink accumulates per-worker row sets, merged on demand. It backs
// every materializing sink and carries the breaker phase timings. When
// forceRes is set (result and nested-loop materialize sinks, whose output
// cannot spill), consumed bytes are force-accounted against the memory
// budget so reports stay honest; budget-aware sinks override consume and
// leave forceRes nil.
type partsSink struct {
	rels     query.RelSet
	parts    []*RowSet
	ph       BreakerPhases
	forceRes *mem.Reservation
}

func newPartsSink(rels query.RelSet, workers int) partsSink {
	return partsSink{rels: rels, parts: make([]*RowSet, workers)}
}

func (s *partsSink) consume(w int, b *Batch) {
	if s.forceRes != nil {
		s.forceRes.Force(batchBytes(b.rows))
	}
	if s.parts[w] == nil {
		s.parts[w] = NewRowSet(s.rels)
	}
	s.parts[w].appendBatch(b.rows)
}

func (s *partsSink) phases() BreakerPhases { return s.ph }

// mergedPar combines the per-worker parts in parallel (recording the merge
// phase); a lone live part is returned directly without copying.
func (s *partsSink) mergedPar(dop int) *RowSet {
	start := time.Now()
	rs := concatPar(s.rels, s.parts, dop)
	s.ph.Merge = time.Since(start)
	return rs
}

// resultSink collects the final query output.
type resultSink struct {
	partsSink
	ex *executor
}

func (s *resultSink) finish() error {
	s.ex.out = s.mergedPar(s.ex.dop)
	s.ex.rows = s.ex.out.Len()
	return nil
}

// hashBuildSink materializes a hash join's build side, populates its Bloom
// filters (reusing the §3.9 strategy selection), and builds the shared
// hash table the probe pipeline reads. Every finish phase — the part
// merge, the Bloom population, the hash-table build — runs across DOP
// workers; there is no intermediate serial merged() copy.
//
// Under a memory budget the sink is the grace hash join's entry point:
// when a grant is denied, the worker's buffered part spills to hash
// partition files and the join switches to grace mode — finish then
// streams the Bloom filters from the spill files and publishes the
// partition state for the probe pipeline instead of building a table.
type hashBuildSink struct {
	partsSink
	ex      *executor
	j       *plan.Join
	estRows float64
	res     *mem.Reservation
	rec     *spillCounters

	mu       sync.Mutex
	g        *graceHashJoin
	spillErr onceErr
}

// grace returns the grace-join state, creating the partition files on
// first use. A setup failure (disk trouble) fails the run.
func (s *hashBuildSink) grace() *graceHashJoin {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.g == nil && s.spillErr.get() == nil {
		g, err := s.ex.newGraceBuild(s.j, s.estRows, s.rec)
		if err != nil {
			s.spillErr.set(err)
			s.ex.fail(err)
			return nil
		}
		s.g = g
	}
	return s.g
}

// spillWorker routes worker w's buffered part to the spill partitions and
// releases its bytes; it is the sink's spill callback, invoked on the
// worker's own goroutine when its grant is denied.
func (s *hashBuildSink) spillWorker(w int) int64 {
	g := s.grace()
	if g == nil {
		return 0
	}
	part := s.parts[w]
	if part == nil || part.Len() == 0 {
		return 0
	}
	if err := g.routeBuild(part); err != nil {
		s.spillErr.set(err)
		s.ex.fail(err)
		return 0
	}
	freed := batchBytes(part)
	s.parts[w] = nil
	s.res.Release(freed)
	return freed
}

func (s *hashBuildSink) consume(w int, b *Batch) {
	delta := batchBytes(b.rows)
	if s.res.Grow(delta, func(int64) int64 { return s.spillWorker(w) }) {
		s.partsSink.consume(w, b)
		return
	}
	// Even with this worker's part spilled the batch does not fit: route
	// it straight to the partitions.
	g := s.grace()
	if g == nil {
		return // spill setup failed; the run is being cancelled
	}
	if err := g.routeBuild(b.rows); err != nil {
		s.spillErr.set(err)
		s.ex.fail(err)
	}
}

func (s *hashBuildSink) finish() error {
	if err := s.spillErr.get(); err != nil {
		return err
	}
	s.mu.Lock()
	g := s.g
	s.mu.Unlock()
	if g == nil {
		totalRows := 0
		for _, p := range s.parts {
			if p != nil {
				totalRows += p.Len()
			}
		}
		// The finish phase allocates the merged copy plus the hash table;
		// grant it up front, or spill the parts and go grace instead of
		// blowing the budget on the table build. Empty build sides never
		// spill — there is nothing to save.
		extra := rowSetBytes(totalRows, s.rels.Count()) + int64(totalRows)*hashEntryBytes
		if totalRows == 0 || s.res.Grow(extra, nil) {
			if totalRows == 0 {
				s.res.Force(extra)
			}
			inner := s.mergedPar(s.ex.dop)
			// Gather the build keys and hash them once; the same vector
			// populates the Bloom filters (when a filter's build column is
			// the hash-key column) and the flat join directory.
			start := time.Now()
			ht, err := gatherBuildKeys(s.ex, s.j, inner)
			if err != nil {
				return err
			}
			gatherWall := time.Since(start)
			if len(s.j.BuildBlooms) > 0 {
				start := time.Now()
				if err := s.ex.buildBlooms(s.j, inner, ht); err != nil {
					return err
				}
				s.ph.Bloom = time.Since(start)
			}
			start = time.Now()
			if _, err := buildHashTableFrom(s.ex, ht); err != nil {
				return err
			}
			s.ph.Build = gatherWall + time.Since(start)
			// Replace the hashEntryBytes estimate with the built table's
			// exact footprint (directory + payload + gathered key columns)
			// so budget reports track what is actually resident.
			exact := ht.tableBytes() + 8*int64(totalRows)*int64(1+len(ht.innerExtras))
			if est := int64(totalRows) * hashEntryBytes; exact > est {
				s.res.Force(exact - est)
			} else {
				s.res.Release(est - exact)
			}
			s.ex.smu.Lock()
			s.ex.builds[s.j] = ht
			s.ex.smu.Unlock()
			return nil
		}
		if g = s.grace(); g == nil {
			return s.spillErr.get()
		}
	}
	// Grace finish: flush any parts still in memory, stream the Bloom
	// filters from the partition files, and publish the partition state
	// for the probe pipeline.
	for w := range s.parts {
		s.spillWorker(w)
	}
	if err := s.spillErr.get(); err != nil {
		return err
	}
	if err := g.finishBuild(); err != nil {
		return err
	}
	if len(s.j.BuildBlooms) > 0 {
		start := time.Now()
		if err := s.ex.buildBloomsSpilled(s.j, g); err != nil {
			return err
		}
		s.ph.Bloom = time.Since(start)
	}
	s.ex.smu.Lock()
	s.ex.graces[s.j] = g
	s.ex.smu.Unlock()
	return nil
}

// mergePair holds both sorted inputs of one merge join.
type mergePair struct {
	outer, inner *sortedInput
}

// sortSink materializes and sorts one merge-join input on its first join
// condition — the sort is the pipeline breaker. Each worker's part is a
// contiguous range of the merged input, sorted as an independent run, and
// the runs are combined by a parallel multiway merge — replacing the
// single-threaded sortByKey tail.
//
// Under a memory budget the sink is an external merge sort: a worker
// whose grant is denied sorts its buffered part and spills it as a sorted
// run; finish reads the runs back and feeds them — they are contiguous
// presorted ranges — to the same splitter-partitioned multiway merge the
// in-memory path uses.
type sortSink struct {
	partsSink
	ex      *executor
	j       *plan.Join
	isInner bool
	res     *mem.Reservation
	rec     *spillCounters
	keyVals []int64 // base-table key column of this side's first condition

	mu       sync.Mutex
	runs     []*spill.Writer
	spillErr onceErr
}

// sortKeyVals resolves the base-table key column this sink sorts on. It
// is resolved eagerly at sink construction (so concurrent spillRun calls
// only read it); the lazy path remains for the no-conditions error case.
func (s *sortSink) sortKeyVals() ([]int64, error) {
	if s.keyVals != nil {
		return s.keyVals, nil
	}
	if len(s.j.Conds) == 0 {
		return nil, fmt.Errorf("exec: merge join with no conditions")
	}
	c := s.j.Conds[0]
	rel, col := c.OuterRel, c.OuterCol
	if s.isInner {
		rel, col = c.InnerRel, c.InnerCol
	}
	cc, err := s.ex.tables[rel].Column(col)
	if err != nil {
		return nil, fmt.Errorf("exec: sort key column: %w", err)
	}
	s.keyVals = cc.Ints
	return s.keyVals, nil
}

// spillRun sorts worker w's buffered part by key and spills it as one
// sorted run, releasing its bytes; the sink's spill callback.
func (s *sortSink) spillRun(w int) int64 {
	part := s.parts[w]
	if part == nil || part.Len() == 0 {
		return 0
	}
	vals, err := s.sortKeyVals()
	if err != nil {
		s.spillErr.set(err)
		s.ex.fail(err)
		return 0
	}
	rel := s.j.Conds[0].OuterRel
	if s.isInner {
		rel = s.j.Conds[0].InnerRel
	}
	ids := part.Col(rel)
	keys := make([]int64, len(ids))
	for i, id := range ids {
		keys[i] = vals[id]
	}
	idx := sortByKey(keys)
	dir, err := s.ex.spillFiles()
	if err == nil {
		var wtr *spill.Writer
		if wtr, err = dir.NewWriter("run", s.rels.Count()); err == nil {
			var written int64
			if written, err = spillSorted(part, idx, wtr); err == nil {
				err = wtr.Finish()
				s.rec.addBytes(written)
				s.rec.addParts(1)
				s.mu.Lock()
				s.runs = append(s.runs, wtr)
				s.mu.Unlock()
			}
		}
	}
	if err != nil {
		s.spillErr.set(err)
		s.ex.fail(err)
		return 0
	}
	freed := batchBytes(part)
	s.parts[w] = nil
	s.res.Release(freed)
	return freed
}

func (s *sortSink) consume(w int, b *Batch) {
	delta := batchBytes(b.rows)
	if !s.res.Grow(delta, func(int64) int64 { return s.spillRun(w) }) {
		// Even an empty buffer cannot make room: the batch itself exceeds
		// the remaining budget. Take the overage — the rows will be
		// spilled as a run at the next denial or at finish.
		s.res.Force(delta)
	}
	s.partsSink.consume(w, b)
}

func (s *sortSink) finish() error {
	if len(s.j.BuildBlooms) > 0 {
		return fmt.Errorf("exec: Bloom filters can only be built at hash joins, got %s", s.j.Method)
	}
	if s.j.JoinType != query.Inner {
		return fmt.Errorf("exec: merge join supports inner joins only, got %s", s.j.JoinType)
	}
	if len(s.j.Conds) == 0 {
		return fmt.Errorf("exec: merge join with no conditions")
	}
	if err := s.spillErr.get(); err != nil {
		return err
	}
	dop := s.ex.dop
	var in *sortedInput
	if len(s.runs) == 0 {
		// In-memory path: per-worker ranges of the merged input sorted as
		// independent runs, combined by the parallel multiway merge.
		_, offs := partOffsets(s.parts)
		rs := s.mergedPar(dop)
		s.res.Force(batchBytes(rs) + 8*int64(rs.Len())) // merged copy + keys

		start := time.Now()
		in = &sortedInput{rs: rs}
		for i, c := range s.j.Conds {
			rel, col := c.OuterRel, c.OuterCol
			if s.isInner {
				rel, col = c.InnerRel, c.InnerCol
			}
			keys := keyColumnPar(rs, s.ex.tables[rel], rel, col, dop)
			if i == 0 {
				in.keys = keys
				bounds := append(append(make([]int, 0, len(offs)+1), offs...), rs.Len())
				in.idx = sortByKeyPar(keys, bounds, dop)
			} else {
				in.extras = append(in.extras, keys)
			}
		}
		s.ph.Sort = time.Since(start)
	} else {
		var err error
		if in, err = s.finishExternal(); err != nil {
			return err
		}
	}

	s.ex.smu.Lock()
	pair := s.ex.sorted[s.j]
	if pair == nil {
		pair = &mergePair{}
		s.ex.sorted[s.j] = pair
	}
	if s.isInner {
		pair.inner = in
	} else {
		pair.outer = in
	}
	s.ex.smu.Unlock()
	return nil
}

// finishExternal completes a spilled sort: any leftover in-memory parts
// spill as final sorted runs, then the runs are read back — each run a
// contiguous presorted index range — and combined by the same
// splitter-partitioned multiway merge as the in-memory path. The merged
// input must materialize either way (the merge-join source random-accesses
// it), so the read-back is force-accounted; what the external sort bounds
// is the accumulate-and-sort phase, whose working set stays within budget.
func (s *sortSink) finishExternal() (*sortedInput, error) {
	start := time.Now()
	for w := range s.parts {
		s.spillRun(w)
	}
	if err := s.spillErr.get(); err != nil {
		return nil, err
	}
	dop := s.ex.dop
	total := 0
	for _, r := range s.runs {
		total += int(r.Rows())
	}
	// Merged row set + keys (8B) + merge index and run indices (2×8B).
	s.res.Force(rowSetBytes(total, s.rels.Count()) + 24*int64(total))
	rs := NewRowSetCap(s.rels, total)
	keys := make([]int64, 0, total)
	vals, err := s.sortKeyVals()
	if err != nil {
		return nil, err
	}
	keyRel := s.j.Conds[0].OuterRel
	if s.isInner {
		keyRel = s.j.Conds[0].InnerRel
	}
	keyPos := relColPos(s.rels, keyRel)
	runsIdx := make([][]int, len(s.runs))
	off := 0
	for ri, w := range s.runs {
		r, err := w.Reader()
		if err != nil {
			return nil, err
		}
		for {
			cols, err := r.Next()
			if err != nil {
				s.rec.addBytesRead(r.BytesRead())
				r.Close()
				return nil, err
			}
			if cols == nil {
				break
			}
			appendRawChunk(rs, cols)
			for _, id := range cols[keyPos] {
				keys = append(keys, vals[id])
			}
		}
		s.rec.addBytesRead(r.BytesRead())
		r.Close()
		w.Remove()
		n := rs.Len() - off
		idx := make([]int, n)
		for i := range idx {
			idx[i] = off + i
		}
		runsIdx[ri] = idx
		off = rs.Len()
	}
	in := &sortedInput{rs: rs, keys: keys}
	in.idx = mergeRuns(keys, runsIdx, dop)
	for _, c := range s.j.Conds[1:] {
		rel, col := c.OuterRel, c.OuterCol
		if s.isInner {
			rel, col = c.InnerRel, c.InnerCol
		}
		in.extras = append(in.extras, keyColumnPar(rs, s.ex.tables[rel], rel, col, dop))
	}
	s.ph.Sort = time.Since(start)
	return in, nil
}

// materializeSink materializes a nested-loop join's inner input with its
// per-condition key arrays.
type materializeSink struct {
	partsSink
	ex *executor
	j  *plan.Join
}

func (s *materializeSink) finish() error {
	if len(s.j.BuildBlooms) > 0 {
		return fmt.Errorf("exec: Bloom filters can only be built at hash joins, got %s", s.j.Method)
	}
	rs := s.mergedPar(s.ex.dop)
	mat := &nlInner{rs: rs}
	for _, c := range s.j.Conds {
		mat.keys = append(mat.keys,
			keyColumn(rs, s.ex.tables[c.InnerRel], c.InnerRel, c.InnerCol))
	}
	s.ex.smu.Lock()
	s.ex.mats[s.j] = mat
	s.ex.smu.Unlock()
	return nil
}

// runPipelined executes the decomposed pipeline DAG (already registered
// with the scheduler at admission), then assembles the stat registries in
// pipeline-ID order so reports stay deterministic regardless of the
// concurrent schedule. Worker slots come from the scheduler ticket, so
// concurrently admitted queries share one DOP-sized pool instead of
// multiplying workers.
func (ex *executor) runPipelined(pipes []*plan.Pipeline) error {
	if err := ex.runDAG(pipes); err != nil {
		return err
	}
	sort.Slice(ex.pipes, func(i, j int) bool { return ex.pipes[i].ID < ex.pipes[j].ID })
	for _, pl := range pipes {
		ex.stats = append(ex.stats, ex.pipeStats[pl.ID]...)
	}
	return nil
}

// runDAG schedules the pipelines: every pipeline whose dependencies have
// completed starts immediately and runs concurrently with its peers (two
// hash-build sides of independent joins, the two sort sides of one merge
// join, ...). The first real error cancels the run — in-flight pipelines
// stop at the next morsel, queued pipelines never start — and is the one
// surfaced to the caller; cancellation casualties are not.
func (ex *executor) runDAG(pipes []*plan.Pipeline) error {
	n := len(pipes)
	children := make([][]int, n)
	pending := make([]int, n)
	for i, pl := range pipes {
		if pl.ID != i {
			return fmt.Errorf("exec: pipeline ID %d at position %d (plan bug)", pl.ID, i)
		}
		for _, d := range pl.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("exec: pipeline P%d depends on P%d, not topological (plan bug)", i, d)
			}
			children[d] = append(children[d], i)
			pending[i]++
		}
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	var launch func(id int)
	launch = func(id int) { // caller holds mu
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Recover shim for the pipeline goroutine: a panic in setup or
			// the breaker finish phase (merge, sort, build, bloom) converts
			// to this query's typed error and cancels its siblings, instead
			// of taking down the process.
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = ex.panicErr(v, fmt.Sprintf("pipeline P%d", id))
					}
				}()
				return ex.runPipeline(pipes[id])
			}()
			if err != nil && err != errCanceled {
				// Setup/finish errors bypass the worker loop's fail();
				// record them here so the run cancels and surfaces them.
				ex.fail(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				return // children of a failed pipeline never start
			}
			for _, c := range children[id] {
				if pending[c]--; pending[c] == 0 && !ex.stop.Load() {
					launch(c)
				}
			}
		}()
	}
	mu.Lock()
	for i := range pipes {
		if pending[i] == 0 {
			launch(i)
		}
	}
	mu.Unlock()
	wg.Wait()
	return ex.runErr()
}

// runPipeline schedules one pipeline across DOP workers pulling morsels
// from the shared source, then finalizes its sink and records actuals.
// Each worker holds one global budget slot while it runs, so concurrently
// scheduled pipelines share DOP workers instead of multiplying them.
func (ex *executor) runPipeline(pl *plan.Pipeline) error {
	start := time.Now()
	workers := ex.dop
	if workers < 1 {
		workers = 1
	}

	var pstats []*opStats
	reg := func(label string, n plan.Node) *opStats {
		st := &opStats{label: label, node: n}
		pstats = append(pstats, st)
		return st
	}

	// Per-pipeline spill counters, shared by the sink and any grace-mode
	// probe operators, snapshotted into the pipeline's stat at the end.
	rec := &spillCounters{}

	// Shared source state + per-worker source factory.
	var newSource func() PhysicalOperator
	var scanSrc *scanSource
	var srcStats *opStats
	switch t := pl.Source.(type) {
	case *plan.Scan:
		srcStats = reg(fmt.Sprintf("Scan %s", t.Alias), t)
		src, err := ex.newScanSource(t, srcStats)
		if err != nil {
			return err
		}
		scanSrc = src
		newSource = func() PhysicalOperator { return &scanOp{src: src} }
	case *plan.Join:
		if t.Method != plan.MergeJoin {
			return fmt.Errorf("exec: join %s cannot source a pipeline (plan bug)", t.Method)
		}
		ex.smu.Lock()
		pair := ex.sorted[t]
		ex.smu.Unlock()
		if pair == nil || pair.outer == nil || pair.inner == nil {
			return fmt.Errorf("exec: merge join inputs were never sorted (plan bug)")
		}
		srcStats = reg(fmt.Sprintf("MergeJoin(%s) merge", t.JoinType), t)
		src, err := ex.newMergeSource(t, pair.outer, pair.inner, srcStats)
		if err != nil {
			return err
		}
		newSource = func() PhysicalOperator { return &mergeSourceOp{src: src} }
	default:
		return fmt.Errorf("exec: unknown pipeline source %T", pl.Source)
	}

	// Shared operator state, in stream order.
	var factories []func(child PhysicalOperator) PhysicalOperator
	opStatsList := make([]*opStats, 0, len(pl.Ops))
	inRels := pl.Source.Rels()
	for _, j := range pl.Ops {
		switch j.Method {
		case plan.HashJoin:
			ex.smu.Lock()
			ht := ex.builds[j]
			g := ex.graces[j]
			ex.smu.Unlock()
			if ht == nil && g == nil {
				return fmt.Errorf("exec: hash table for %s was never built (plan bug)", j.Method)
			}
			st := reg(fmt.Sprintf("HashJoin(%s) probe", j.JoinType), j)
			sh, err := ex.newProbeShared(j, ht, g, inRels, st, workers, rec)
			if err != nil {
				return err
			}
			factories = append(factories, func(c PhysicalOperator) PhysicalOperator {
				return &probeOp{sh: sh, ex: ex, child: c}
			})
			opStatsList = append(opStatsList, st)
			inRels = sh.outRels
		case plan.NestLoopJoin:
			ex.smu.Lock()
			mat := ex.mats[j]
			ex.smu.Unlock()
			if mat == nil {
				return fmt.Errorf("exec: nested-loop inner was never materialized (plan bug)")
			}
			st := reg(fmt.Sprintf("NestLoop(%s) probe", j.JoinType), j)
			sh, err := ex.newNLShared(j, mat, inRels, st)
			if err != nil {
				return err
			}
			factories = append(factories, func(c PhysicalOperator) PhysicalOperator {
				return &nlProbeOp{sh: sh, child: c}
			})
			opStatsList = append(opStatsList, st)
			inRels = sh.outRels
		default:
			return fmt.Errorf("exec: join %s cannot stream inside a pipeline (plan bug)", j.Method)
		}
	}

	// Batch side-channel requests onto the scan source: the first hash
	// probe keyed on a scan column can reuse the scan's Bloom hash vector,
	// and an aggregation group key living on the scan relation can ride
	// the batch as dictionary codes so the fold skips interning.
	if scanSrc != nil {
		if len(pl.Ops) > 0 {
			if j := pl.Ops[0]; j.Method == plan.HashJoin && len(j.Conds) > 0 &&
				j.Conds[0].OuterRel == scanSrc.s.Rel {
				scanSrc.requestHashCarry(j.Conds[0].OuterCol)
			}
		}
		if pl.Sink == plan.SinkResult {
			for _, spec := range ex.aggSpecs {
				if spec.Kind != AggGroupCount && spec.Kind != AggGroupRevenue {
					continue
				}
				if spec.KeyRel != scanSrc.s.Rel {
					continue
				}
				if c, err := ex.tables[spec.KeyRel].Column(spec.KeyCol); err == nil && c.Strings != nil {
					scanSrc.requestDictCodes(spec.KeyCol, ex.groupDictFor(spec.KeyRel, spec.KeyCol, c.Strings))
				}
			}
		}
	}

	snk, err := ex.newSink(pl, inRels, workers, rec)
	if err != nil {
		return err
	}

	// Live-inspector cell for this pipeline (nil when the run is not
	// registered). Workers fold morsel counts and row totals into it at
	// batch boundaries — never per row, never allocating.
	var lp *obs.PipeProgress
	if ex.live != nil {
		if lp = ex.live.Pipeline(pl.ID); lp != nil {
			lp.Running()
		}
	}
	// pprof labels attribute every worker's CPU samples to the query, its
	// shape fingerprint, and this pipeline; set once per worker launch.
	labels := pprof.Labels("query", ex.queryTag,
		"fingerprint", ex.fpHex, "pipeline", fmt.Sprintf("P%d", pl.ID))
	lctx := ex.pctx
	if lctx == nil {
		lctx = context.Background()
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker recover shim: one poisoned worker (an operator
			// invariant panic, an injected exec.panic fault) fails only its
			// query — the error lands in errs[w], ex.fail stops sibling
			// workers at the next morsel, and the workerLoop's own defers
			// have already released the slot and closed the operator chain
			// during unwind.
			defer func() {
				if v := recover(); v != nil {
					perr := ex.panicErr(v, fmt.Sprintf("pipeline P%d worker %d", pl.ID, w))
					errs[w] = perr
					ex.fail(perr)
				}
			}()
			pprof.Do(lctx, labels, func(context.Context) { ex.workerLoop(pl, w, newSource, factories, snk, lp, srcStats, errs) })
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ex.stop.Load() {
		return errCanceled
	}
	if scanSrc != nil {
		scanSrc.flushBloomStats()
		rt := scanSrc.runtime()
		ex.smu.Lock()
		ex.scanRt = append(ex.scanRt, rt)
		ex.smu.Unlock()
	}
	finishStart := time.Now()
	if err := snk.finish(); err != nil {
		return err
	}
	finishWall := time.Since(finishStart)
	if lp != nil {
		lp.Done()
	}

	// Per-node actuals: every plan node appears in exactly one pipeline
	// position (scans and merge joins as sources, other joins as ops), so
	// each is recorded exactly once.
	ex.record(pl.Source, int(srcStats.rowsOut.Load()))
	last := srcStats
	for i, j := range pl.Ops {
		ex.record(j, int(opStatsList[i].rowsOut.Load()))
		last = opStatsList[i]
	}
	ps := PipelineStat{
		ID:         pl.ID,
		Label:      pl.Describe(),
		Workers:    workers,
		Wall:       time.Since(start),
		Rows:       last.rowsOut.Load(),
		FinishWall: finishWall,
		Phases:     snk.phases(),
		Spill:      rec.snapshot(),
	}
	if as, ok := snk.(*aggSink); ok {
		for _, n := range as.codeReused {
			ps.FoldCodeReused += n
		}
	}
	if ex.trace != nil {
		// One span per pipeline plus its breaker finish and measured finish
		// phases — each pipeline gets its own trace lane (tid). The finish
		// phases run sequentially inside the breaker, so laying them
		// end-to-end from finishStart reconstructs the real timeline.
		tid := pl.ID + 1
		ex.trace.Add(fmt.Sprintf("pipeline %d: %s", pl.ID, pl.Describe()), "pipeline", tid, start, ps.Wall)
		if finishWall > 0 {
			ex.trace.Add("finish", "breaker", tid, finishStart, finishWall)
			at := finishStart
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{
				{"merge", ps.Phases.Merge}, {"sort", ps.Phases.Sort},
				{"build", ps.Phases.Build}, {"bloom", ps.Phases.Bloom},
			} {
				if ph.d > 0 {
					ex.trace.Add(ph.name, "phase", tid, at, ph.d)
					at = at.Add(ph.d)
				}
			}
		}
	}
	ex.smu.Lock()
	ex.pipeStats[pl.ID] = pstats
	ex.pipes = append(ex.pipes, ps)
	ex.smu.Unlock()
	return nil
}

// workerLoop is one pipeline worker's life: lease a global slot, build
// the private operator chain, pull batches until end of stream or the
// run-wide stop, and fold live progress into the inspector cell at each
// morsel boundary. It runs under the worker's pprof labels
// (query/fingerprint/pipeline), so CPU samples attribute to the query.
func (ex *executor) workerLoop(pl *plan.Pipeline, w int,
	newSource func() PhysicalOperator,
	factories []func(child PhysicalOperator) PhysicalOperator,
	snk sink, lp *obs.PipeProgress, srcStats *opStats, errs []error) {
	// Acquire one global worker slot — leased from the process-wide
	// scheduler, so concurrently admitted queries cap their total
	// running workers at the pool capacity, not at DOP each. A
	// false acquire means the run was canceled while queued.
	holding := ex.acquireSlot()
	if !holding {
		return
	}
	defer func() {
		if holding {
			ex.yieldSlot()
		}
	}()
	op := newSource()
	for _, f := range factories {
		op = f(op)
	}
	if ex.injectOp != nil {
		op = ex.injectOp(pl, w, op)
	}
	fail := func(err error) {
		errs[w] = err
		ex.fail(err)
	}
	// Open and Close always pair: a chain operator that opened its
	// child must release it even when Open itself failed, a batch
	// errored, or the run was canceled mid-stream.
	if err := op.Open(); err != nil {
		fail(err)
		op.Close()
		return
	}
	defer func() {
		if err := op.Close(); err != nil && errs[w] == nil {
			fail(err)
		}
	}()
	// The stop check makes the first error — anywhere in the run —
	// cancel sibling workers between batches; the morsel sources
	// check it too, so a worker inside NextBatch stops claiming
	// morsels instead of draining the source.
	for !ex.stop.Load() {
		// Morsel-boundary fault sites: exec.error fails this query with a
		// typed transient error; exec.panic throws into the worker's
		// recover shim, exercising the full containment path. Both fire
		// between batches, never mid-operator, so no sink lock is held.
		if ferr := faults.Hit(faults.ExecError); ferr != nil {
			fail(fmt.Errorf("exec: injected worker error (query %s, pipeline P%d): %w", ex.queryTag, pl.ID, ferr))
			return
		}
		if ferr := faults.Hit(faults.ExecPanic); ferr != nil {
			panic(ferr)
		}
		b, err := op.NextBatch()
		if err != nil {
			if err == errSlotLost {
				// The grace barrier yielded the slot and the run was
				// canceled before it could be re-acquired.
				holding = false
				return
			}
			fail(err)
			return
		}
		if b == nil {
			return
		}
		snk.consume(w, b)
		if lp != nil {
			// Morsel-boundary progress fold: this batch's emitted rows plus
			// the source's cumulative scanned total — two atomic adds and a
			// max-publish per morsel, nothing per row, no allocation.
			lp.Fold(int64(b.Len()), srcStats.rowsIn.Load())
		}
		// Morsel-boundary preemption: hand the slot to a starved
		// concurrent query when over fair share.
		if !ex.maybeYield() {
			holding = false
			return
		}
	}
}

// newSink builds the pipeline's sink for its breaker kind. Spillable
// breakers (hash builds and sorts — see plan.SinkKind.Spillable) get a
// memory reservation they check before growing state; the result and
// materialize sinks force-account their bytes, since their output cannot
// spill.
func (ex *executor) newSink(pl *plan.Pipeline, rels query.RelSet, workers int, rec *spillCounters) (sink, error) {
	base := newPartsSink(rels, workers)
	if pl.Sink == plan.SinkResult && len(ex.aggSpecs) > 0 {
		// The aggregation sink's state is O(groups), not O(rows); its
		// per-worker partial maps are force-accounted against the budget
		// inside newAggSink (the accounting step toward the ROADMAP's
		// "spilling aggregation").
		return ex.newAggSink(rels, workers)
	}
	res := ex.memq.Reserve(fmt.Sprintf("P%d %s", pl.ID, pl.Sink))
	if !pl.Sink.Spillable() {
		// Non-spillable breakers (plan.SinkKind.Spillable is the source of
		// truth) force-account their bytes: their output must stay
		// resident for random access.
		base.forceRes = res
	}
	switch pl.Sink {
	case plan.SinkResult:
		return &resultSink{partsSink: base, ex: ex}, nil
	case plan.SinkHashBuild:
		return &hashBuildSink{partsSink: base, ex: ex, j: pl.SinkJoin,
			estRows: pl.EstSinkRows(), res: res, rec: rec}, nil
	case plan.SinkSortOuter, plan.SinkSortInner:
		s := &sortSink{partsSink: base, ex: ex, j: pl.SinkJoin,
			isInner: pl.Sink == plan.SinkSortInner, res: res, rec: rec}
		if len(s.j.Conds) > 0 {
			if _, err := s.sortKeyVals(); err != nil {
				return nil, err
			}
		}
		return s, nil
	case plan.SinkMaterialize:
		return &materializeSink{partsSink: base, ex: ex, j: pl.SinkJoin}, nil
	default:
		return nil, fmt.Errorf("exec: unknown sink kind %v", pl.Sink)
	}
}
