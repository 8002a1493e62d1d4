package exec

import (
	"fmt"
	"time"

	"sync/atomic"

	"bfcbo/internal/bloom"
	"bfcbo/internal/cost"
	"bfcbo/internal/mem"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/spill"
)

// This file is the grace hash join: when a hash-build sink's memory grant
// is denied, both join sides hash-partition to spill files and the join
// runs partition pair by partition pair. The build sink routes build rows
// to nparts partition files (level-0 hash); the probe pipeline's workers
// route their input batches to matching probe partition files instead of
// probing; once every worker has finished writing, workers claim
// partitions from a shared cursor and join each pair — loading the build
// partition, building its table with the existing two-phase parallel
// buildHashTable, and streaming the probe partition through the shared
// probeBatch kernel, so all join types (inner/semi/anti/left) and extra
// conditions work unchanged. A partition pair whose grant is denied again
// repartitions recursively with a level-salted hash, up to graceMaxDepth.

// graceHashJoin is the shared state of one spilled hash join, created by
// the build sink and completed by the probe pipeline.
type graceHashJoin struct {
	ex     *executor
	j      *plan.Join
	nparts int

	// Build side: partition files plus the key gather (base-table column
	// indexed by spilled row ids, so keys are re-derived, never stored).
	buildRels    query.RelSet
	buildKeyPos  int // column position of the key relation in the spill layout
	buildKeyVals []int64
	build        []*spill.Writer
	buildRec     *spillCounters

	// Probe side, initialized when the probe pipeline opens.
	probeRels    query.RelSet
	probeKeyRel  int
	probeKeyPos  int
	probeKeyVals []int64
	probe        []*spill.Writer
	probeRec     *spillCounters
	res          *mem.Reservation

	// Drain coordination: writersLeft counts probe workers still routing;
	// the channel closes when the last one finishes, and cursor hands out
	// partitions to drain.
	writersLeft atomic.Int32
	writersDone chan struct{}
	cursor      atomic.Int64
}

// relColPos returns the spill-layout column position of rel within rels
// (columns are stored in ascending relation order).
func relColPos(rels query.RelSet, rel int) int {
	for i, r := range rels.Members() {
		if r == rel {
			return i
		}
	}
	return -1
}

// newGraceBuild opens the build-side partition files for join j. estRows
// is the planner's build-input estimate, which sizes the partition count.
func (ex *executor) newGraceBuild(j *plan.Join, estRows float64, rec *spillCounters) (*graceHashJoin, error) {
	if len(j.Conds) == 0 {
		return nil, fmt.Errorf("exec: hash join with no conditions")
	}
	c0 := j.Conds[0]
	col, err := ex.tables[c0.InnerRel].Column(c0.InnerCol)
	if err != nil {
		return nil, fmt.Errorf("exec: grace build key: %w", err)
	}
	buildRels := j.Inner.Rels()
	d, err := ex.spillFiles()
	if err != nil {
		return nil, err
	}
	g := &graceHashJoin{
		ex: ex, j: j,
		nparts:       spillPartitionCount(estRows, buildRels.Count(), ex.budget),
		buildRels:    buildRels,
		buildKeyPos:  relColPos(buildRels, c0.InnerRel),
		buildKeyVals: col.Ints,
		buildRec:     rec,
	}
	if g.build, err = partitionWriters(d, "build", g.nparts, buildRels.Count()); err != nil {
		return nil, err
	}
	rec.addParts(int64(g.nparts))
	return g, nil
}

// routeBuild partitions one build-side row set into the build files.
// Safe for concurrent use (chunk appends are atomic per partition). The
// key gather runs in pooled scratch: routing happens on shared sink
// state across many workers and batches, so per-call allocation would
// dominate the spill path's steady state.
func (g *graceHashJoin) routeBuild(rs *RowSet) error {
	ids := rs.Col(g.j.Conds[0].InnerRel)
	kp := keyVecPool.Get().(*[]int64)
	keys := (*kp)[:0]
	for _, id := range ids {
		keys = append(keys, g.buildKeyVals[id])
	}
	n, err := routeCols(rs.cols, keys, 0, g.build)
	g.buildRec.addBytes(n)
	*kp = keys[:0]
	keyVecPool.Put(kp)
	return err
}

// finishBuild flushes the build partition files; called once by the build
// sink's finish after all routing is done.
func (g *graceHashJoin) finishBuild() error {
	for _, w := range g.build {
		if err := w.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// initProbe attaches the probe side: partition files matching the build
// fan-out, the probe-key gather, and the writer barrier sized to the probe
// pipeline's worker count. Called once during probe-pipeline setup, before
// any worker starts.
func (g *graceHashJoin) initProbe(inRels query.RelSet, keyRel int, keyVals []int64,
	workers int, rec *spillCounters, res *mem.Reservation) error {
	d, err := g.ex.spillFiles()
	if err != nil {
		return err
	}
	g.probeRels = inRels
	g.probeKeyRel = keyRel
	g.probeKeyPos = relColPos(inRels, keyRel)
	g.probeKeyVals = keyVals
	if g.probe, err = partitionWriters(d, "probe", g.nparts, inRels.Count()); err != nil {
		return err
	}
	g.probeRec = rec
	g.res = res
	g.writersLeft.Store(int32(workers))
	g.writersDone = make(chan struct{})
	rec.addParts(int64(g.nparts))
	return nil
}

// markDone retires one probe writer; the last one opens the drain.
func (g *graceHashJoin) markDone() {
	if g.writersLeft.Add(-1) == 0 {
		close(g.writersDone)
	}
}

// waitWriters blocks until every probe worker finished routing, or the
// run-wide stop channel cancels the wait. The caller must have yielded its
// global worker slot: a worker blocked here holds no slot, so concurrent
// grace pipelines — of this query or of any other admitted query sharing
// the pool — cannot deadlock the slot pool against each other.
func (g *graceHashJoin) waitWriters() bool {
	select {
	case <-g.writersDone:
		return true
	case <-g.ex.stopCh:
		return false
	}
}

// graceProbeBufRows bounds each worker's per-partition route buffer.
const graceProbeBufRows = 1024

// spillPair is one (build, probe) partition pair awaiting its join, with
// the hash level its files were routed at.
type spillPair struct {
	build, probe *spill.Writer
	level        int
}

// activePair is the pair a worker is currently streaming: the loaded
// build table plus an open probe reader. Join output is emitted one probe
// chunk at a time, so the drain never buffers a pair's full result.
type activePair struct {
	ht      *hashTable
	r       *spill.Reader
	probe   *spill.Writer
	est     int64
	scratch *RowSet
}

// graceProbeWorker is one probe worker's private grace state: route
// buffers while writing, then a stack of partition pairs (repartitioning
// pushes sub-pairs) and the pair currently streaming.
type graceProbeWorker struct {
	g        *graceHashJoin
	bufs     []*RowSet
	scr      probeScratch // per-worker probe scratch for the drain
	inBatch  Batch        // reused batch header wrapping reloaded chunks
	done     bool         // this worker finished writing (markDone sent)
	draining bool
	stack    []spillPair
	act      *activePair
}

func newGraceProbeWorker(g *graceHashJoin) *graceProbeWorker {
	return &graceProbeWorker{g: g, bufs: make([]*RowSet, g.nparts)}
}

// closeActive releases the streaming pair's read handle; called from
// Close so an erroring or cancelled worker leaks no descriptor (the file
// itself is removed by the run's spill-dir cleanup, the reservation by
// the query account's close).
func (w *graceProbeWorker) closeActive() {
	if w.act != nil {
		w.g.probeRec.addBytesRead(w.act.r.BytesRead())
		w.act.r.Close()
		w.act = nil
	}
}

// finishWriting retires this worker from the writer barrier. Idempotent;
// also called from Close so an erroring worker cannot stall the barrier.
func (w *graceProbeWorker) finishWriting() {
	if !w.done {
		w.done = true
		w.g.markDone()
	}
}

// route buffers one input batch into the per-partition buffers, flushing
// any buffer that fills.
func (w *graceProbeWorker) route(in *RowSet) error {
	g := w.g
	ids := in.Col(g.probeKeyRel)
	for i := range ids {
		key := g.probeKeyVals[ids[i]]
		p := int(spillHash(key, 0) % uint64(g.nparts))
		buf := w.bufs[p]
		if buf == nil {
			buf = NewRowSetCap(g.probeRels, graceProbeBufRows)
			w.bufs[p] = buf
		}
		for c := range buf.cols {
			buf.cols[c] = append(buf.cols[c], in.cols[c][i])
		}
		if buf.Len() >= graceProbeBufRows {
			if err := w.flush(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *graceProbeWorker) flush(p int) error {
	buf := w.bufs[p]
	if buf == nil || buf.Len() == 0 {
		return nil
	}
	if err := w.g.probe[p].AppendChunk(buf.cols); err != nil {
		return err
	}
	w.g.probeRec.addBytes(int64(4 + 4*buf.Len()*len(buf.cols)))
	for c := range buf.cols {
		buf.cols[c] = buf.cols[c][:0]
	}
	return nil
}

func (w *graceProbeWorker) flushAll() error {
	for p := range w.bufs {
		if err := w.flush(p); err != nil {
			return err
		}
	}
	return nil
}

// graceNext is probeOp.NextBatch in grace mode: route the child's stream
// to the probe partitions, pass the writer barrier, then drain partition
// pairs. The drain is a streaming state machine — one probe chunk of the
// active pair is joined and emitted per call, so the only drain-side
// memory is the active pair's build table (broker-accounted) plus one
// chunk; a pair's join output is never buffered whole.
func (o *probeOp) graceNext() (*Batch, error) {
	w := o.gw
	g := w.g
	sh := o.sh
	for {
		if g.ex.stop.Load() {
			w.closeActive()
			return nil, nil
		}
		if w.act != nil {
			start := time.Now()
			cols, err := w.act.r.Next()
			if err != nil {
				return nil, err
			}
			if cols == nil {
				g.probeRec.addBytesRead(w.act.r.BytesRead())
				w.act.r.Close()
				w.act.probe.Remove()
				g.res.Release(w.act.est)
				w.act = nil
				continue
			}
			scratch := w.act.scratch
			for c := range scratch.cols {
				scratch.cols[c] = scratch.cols[c][:0]
			}
			appendRawChunk(scratch, cols)
			// Reloaded chunks carry no side channels: the probe re-hashes
			// their keys.
			w.inBatch = Batch{rows: scratch}
			out := sh.probeBatch(w.act.ht, &w.inBatch, &w.scr)
			// Probe rows were already counted as RowsIn while routing;
			// the drain only adds output rows.
			sh.stats.observe(0, out.Len(), time.Since(start))
			if out.Len() > 0 {
				return out, nil
			}
			continue
		}
		if len(w.stack) > 0 {
			p := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			if err := g.startPair(p, w); err != nil {
				return nil, err
			}
			continue
		}
		if w.draining {
			p := g.cursor.Add(1) - 1
			if p >= int64(g.nparts) {
				return nil, nil
			}
			w.stack = append(w.stack, spillPair{build: g.build[p], probe: g.probe[p]})
			continue
		}
		in, err := o.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			if err := w.flushAll(); err != nil {
				return nil, err
			}
			w.finishWriting()
			// Yield the global worker slot across the barrier so waiting
			// here can never starve the workers it is waiting for. A
			// canceled run may fail to re-acquire: the worker then exits
			// via errSlotLost, holding no slot.
			g.ex.yieldSlot()
			ok := g.waitWriters()
			if !g.ex.acquireSlot() {
				return nil, errSlotLost
			}
			if !ok {
				return nil, nil // run cancelled while waiting
			}
			w.draining = true
			continue
		}
		start := time.Now()
		if err := w.route(in.rows); err != nil {
			return nil, err
		}
		sh.stats.observe(in.Len(), 0, time.Since(start))
	}
}

// startPair opens one (build, probe) pair for streaming: skip it when it
// cannot produce output, repartition it (pushing sub-pairs on the
// worker's stack) when its grant is denied and splitting can help, or
// load the build table and hand the probe file to the chunk streamer.
func (g *graceHashJoin) startPair(p spillPair, w *graceProbeWorker) error {
	bRows, pRows := int(p.build.Rows()), int(p.probe.Rows())
	jt := g.j.JoinType
	if pRows == 0 || (bRows == 0 && (jt == query.Inner || jt == query.Semi)) {
		// No probe rows never produce output; an empty build side only
		// matters for anti/left, which emit unmatched probe rows.
		p.build.Remove()
		p.probe.Remove()
		return nil
	}
	// An empty build side needs no memory — anti/left stream the probe
	// rows against an empty table, so a denied budget must not trigger a
	// pointless repartition pass.
	est := rowSetBytes(bRows, g.buildRels.Count()) + int64(bRows)*hashEntryBytes
	if bRows == 0 {
		est = 0
	}
	if !g.res.Grow(est, nil) {
		if p.level < graceMaxDepth && (bRows > graceMinPartRows || pRows > graceMinPartRows) {
			return g.repartition(p, w)
		}
		// The pair cannot usefully be split further (skewed key or tiny
		// partition): take the overage.
		g.res.Force(est)
	}
	buildRS, err := readSpill(p.build, g.buildRels, g.probeRec)
	if err != nil {
		g.res.Release(est)
		return err
	}
	p.build.Remove()
	ht, err := buildHashTable(g.ex, g.j, buildRS)
	if err != nil {
		g.res.Release(est)
		return err
	}
	// Replace the hashEntryBytes estimate with the built table's exact
	// footprint; the active pair releases the adjusted figure when its
	// probe stream drains.
	exact := rowSetBytes(bRows, g.buildRels.Count()) +
		ht.tableBytes() + 8*int64(bRows)*int64(1+len(ht.innerExtras))
	if exact > est {
		g.res.Force(exact - est)
	} else {
		g.res.Release(est - exact)
	}
	est = exact
	r, err := p.probe.Reader()
	if err != nil {
		g.res.Release(est)
		return err
	}
	w.act = &activePair{ht: ht, r: r, probe: p.probe, est: est, scratch: NewRowSet(g.probeRels)}
	return nil
}

// repartition streams both files of a too-big pair into graceSubParts
// sub-pairs hashed at the next level, pushed onto the worker's stack.
func (g *graceHashJoin) repartition(p spillPair, w *graceProbeWorker) error {
	bw, pw, level := p.build, p.probe, p.level
	g.probeRec.bumpDepth(level + 1)
	d, err := g.ex.spillFiles()
	if err != nil {
		return err
	}
	subB, err := partitionWriters(d, "gjb", graceSubParts, g.buildRels.Count())
	if err != nil {
		return err
	}
	subP, err := partitionWriters(d, "gjp", graceSubParts, g.probeRels.Count())
	if err != nil {
		return err
	}
	g.probeRec.addParts(2 * graceSubParts)
	route := func(src *spill.Writer, keyPos int, vals []int64, dst []*spill.Writer, rec *spillCounters) error {
		r, err := src.Reader()
		if err != nil {
			return err
		}
		defer func() {
			rec.addBytesRead(r.BytesRead())
			r.Close()
		}()
		var keys []int64
		for {
			cols, err := r.Next()
			if err != nil {
				return err
			}
			if cols == nil {
				break
			}
			n := len(cols[keyPos])
			if cap(keys) < n {
				keys = make([]int64, n)
			}
			keys = keys[:n]
			for i, id := range cols[keyPos] {
				keys[i] = vals[id]
			}
			written, err := routeCols(cols, keys, level+1, dst)
			rec.addBytes(written)
			if err != nil {
				return err
			}
		}
		return src.Remove()
	}
	if err := route(bw, g.buildKeyPos, g.buildKeyVals, subB, g.probeRec); err != nil {
		return err
	}
	if err := route(pw, g.probeKeyPos, g.probeKeyVals, subP, g.probeRec); err != nil {
		return err
	}
	for i := 0; i < graceSubParts; i++ {
		if err := subB[i].Finish(); err != nil {
			return err
		}
		if err := subP[i].Finish(); err != nil {
			return err
		}
		w.stack = append(w.stack, spillPair{build: subB[i], probe: subP[i], level: level + 1})
	}
	return nil
}

// buildBloomsSpilled populates join j's Bloom filters by streaming the
// spilled build partitions — the out-of-memory counterpart of buildBlooms.
// One pass over the files feeds every filter; strategy selection matches
// the in-memory path exactly, and because Bloom bits are order-independent
// the resulting filters (and their Inserted counts) are identical to an
// in-memory build over the same rows.
func (ex *executor) buildBloomsSpilled(j *plan.Join, g *graceHashJoin) error {
	type spec struct {
		id     int
		pos    int // column position of BuildRel in the spill layout
		vals   []int64
		vals2  []int64 // second column of a multi-column filter, or nil
		insert func(key int64)
		handle bloomHandle
		st     *BloomRuntime
	}
	var specs []spec
	totalRows := int64(0)
	for _, w := range g.build {
		totalRows += w.Rows()
	}
	for _, id := range j.BuildBlooms {
		sp, ok := ex.specs[id]
		if !ok {
			return fmt.Errorf("exec: join builds unknown Bloom filter %d", id)
		}
		tbl := ex.tables[sp.BuildRel]
		col, err := tbl.Column(sp.BuildCol)
		if err != nil {
			return fmt.Errorf("exec: bloom %d build column: %w", id, err)
		}
		s := spec{
			id:   id,
			pos:  relColPos(g.buildRels, sp.BuildRel),
			vals: col.Ints,
			st:   &BloomRuntime{ID: id},
		}
		if sp.BuildCol2 != "" {
			col2, err := tbl.Column(sp.BuildCol2)
			if err != nil {
				return fmt.Errorf("exec: bloom %d build column: %w", id, err)
			}
			s.vals2 = col2.Ints
		}
		ndv := uint64(sp.EstBuildNDV)
		if ndv == 0 {
			ndv = uint64(totalRows) + 1
		}
		// Strategy selection mirrors buildBlooms; serial streaming inserts
		// produce bit-identical filters (OR is order-independent).
		switch {
		case ex.dop <= 1, j.Streaming == cost.BroadcastInner:
			f := bloom.NewForNDV(ndv)
			s.insert = f.Add
			s.handle = f
			s.st.Strategy = "single"
		case j.Streaming == cost.BroadcastOuter:
			f := bloom.NewForNDV(ndv)
			s.insert = f.Add
			s.handle = f
			s.st.Strategy = "merged"
		default:
			perPart := (2*ndv)/uint64(ex.dop) + 16
			pf, err := bloom.NewPartitioned(ex.dop, perPart)
			if err != nil {
				return err
			}
			s.insert = pf.Add
			s.handle = pf
			s.st.Strategy = "partitioned"
		}
		specs = append(specs, s)
	}
	for _, w := range g.build {
		r, err := w.Reader()
		if err != nil {
			return err
		}
		for {
			cols, err := r.Next()
			if err != nil {
				g.buildRec.addBytesRead(r.BytesRead())
				r.Close()
				return err
			}
			if cols == nil {
				break
			}
			for i := range specs {
				s := &specs[i]
				for _, id := range cols[s.pos] {
					key := s.vals[id]
					if s.vals2 != nil {
						key = bloom.CombineKeys(key, s.vals2[id])
					}
					s.insert(key)
				}
			}
		}
		g.buildRec.addBytesRead(r.BytesRead())
		r.Close()
	}
	for _, s := range specs {
		var inserted uint64
		var sat float64
		switch h := s.handle.(type) {
		case *bloom.Filter:
			inserted, sat = h.Inserted(), h.Saturation()
		case *bloom.Partitioned:
			inserted, sat = h.Inserted(), h.Saturation()
		}
		s.st.Inserted, s.st.Saturation = inserted, sat
		if ex.satLimit > 0 && ex.satLimit < 1 && sat > ex.satLimit {
			s.st.Strategy = "skipped"
			ex.setFilter(s.id, passAllFilter{}, s.st)
			continue
		}
		ex.setFilter(s.id, s.handle, s.st)
	}
	return nil
}
