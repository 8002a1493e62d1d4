package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bfcbo/internal/bloom"
	"bfcbo/internal/hashtab"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// ---------------------------------------------------------------------------
// Scan source: workers pull morsels of base-table rows from a shared atomic
// cursor, apply the residual predicate and Bloom probes, and emit batches of
// qualifying row ids. This is the morsel-driven entry point of a pipeline.

// scanBloom is one Bloom filter a scan probes, with shared atomic tallies.
// Workers accumulate in per-worker locals and fold into the atomics once at
// Close, so the probe loop itself performs no atomic operations.
type scanBloom struct {
	h      bloomHandle
	col    string // the filtered column (the first, for multi-column)
	vals   []int64
	vals2  []int64 // second column of a multi-column filter, or nil
	st     *BloomRuntime
	tested atomic.Int64
	passed atomic.Int64
}

// scanZone is one morsel-skip test: a predicate-derived bound check paired
// with the zone map of the column it constrains.
type scanZone struct {
	zm        *storage.ZoneMap
	skipInt   func(min, max int64) bool
	skipFloat func(min, max float64) bool
}

// scanSource is the shared state of a scan pipeline source. The predicate
// is compiled once into kernels bound to the table's column slices; workers
// share the immutable kernels and keep private adaptive chains. All runtime
// counters are folded from per-worker locals at operator Close.
type scanSource struct {
	s       *plan.Scan
	tbl     *storage.Table
	kernels []query.Kernel
	zones   []scanZone
	bfs     []*scanBloom
	n       int
	morsel  int
	cursor  atomic.Int64
	stats   *opStats
	// stop is the run-wide cancellation flag: once set (first worker
	// error), the source hands out no further morsels, so sibling workers
	// and concurrently scheduled pipelines wind down promptly instead of
	// draining the table.
	stop *atomic.Bool

	morsels         atomic.Int64
	zoneSkipped     atomic.Int64
	zoneSkippedRows atomic.Int64
	predIn, predOut []atomic.Int64 // one pair per kernel, compile order

	// Batch side-channel requests, set by runPipeline after construction
	// (they depend on the pipeline's downstream operators). carryIdx names
	// the Bloom probe whose per-batch hash vector doubles as the batch's
	// hash channel — the first probe operator keys on the same column, so
	// its HashVec pass becomes redundant. codeDict/codeCol ask the scan to
	// gather group-dictionary codes for an aggregation group key that lives
	// on this relation.
	carryIdx int // index into bfs, -1 when no hash carry
	hashCol  string
	codeDict *groupDict
	codeCol  string
}

func (ex *executor) newScanSource(s *plan.Scan, stats *opStats) (*scanSource, error) {
	tbl := ex.tables[s.Rel]
	kernels, err := query.Compile(s.Pred, tbl)
	if err != nil {
		return nil, fmt.Errorf("exec: scan of %s: %w", s.Alias, err)
	}
	src := &scanSource{
		s: s, tbl: tbl, kernels: kernels,
		n: tbl.NumRows(), morsel: ex.morsel, stats: stats,
		stop:     &ex.stop,
		carryIdx: -1,
		predIn:   make([]atomic.Int64, len(kernels)),
		predOut:  make([]atomic.Int64, len(kernels)),
	}
	// Zone maps: each prunable conjunct pairs with its column's per-block
	// bounds; a missing or type-mismatched map simply means no skipping for
	// that conjunct.
	for _, zp := range query.ZonePruners(s.Pred) {
		zm := tbl.ZoneMap(zp.Col)
		if zm == nil {
			continue
		}
		if zp.SkipInt != nil && zm.IsInt() {
			src.zones = append(src.zones, scanZone{zm: zm, skipInt: zp.SkipInt})
		} else if zp.SkipFloat != nil && zm.IsFloat() {
			src.zones = append(src.zones, scanZone{zm: zm, skipFloat: zp.SkipFloat})
		}
	}
	for _, id := range s.ApplyBlooms {
		h, st, ok := ex.filter(id)
		if !ok {
			return nil, fmt.Errorf("exec: scan of %s requires Bloom filter %d which was never built (plan bug)", s.Alias, id)
		}
		spec := ex.specs[id]
		col, err := tbl.Column(spec.ApplyCol)
		if err != nil {
			return nil, fmt.Errorf("exec: bloom %d: %w", id, err)
		}
		entry := &scanBloom{h: h, col: spec.ApplyCol, vals: col.Ints, st: st}
		if spec.ApplyCol2 != "" {
			col2, err := tbl.Column(spec.ApplyCol2)
			if err != nil {
				return nil, fmt.Errorf("exec: bloom %d: %w", id, err)
			}
			entry.vals2 = col2.Ints
		}
		src.bfs = append(src.bfs, entry)
	}
	return src, nil
}

// requestHashCarry asks the scan to publish its per-batch Bloom hash
// vector as the batch's hash side channel for col. It takes effect only
// when a single-column Bloom probe on that column exists — the hashes are
// then computed anyway, and keeping them costs one compaction at most.
// The last matching probe wins: its vector needs no further compaction.
func (src *scanSource) requestHashCarry(col string) {
	for k, b := range src.bfs {
		if b.vals2 == nil && b.col == col {
			src.carryIdx, src.hashCol = k, col
		}
	}
}

// requestDictCodes asks the scan to gather the group-dictionary codes of
// col for every emitted row, so a downstream aggregation fold can skip
// group-key interning (the dictCodes side channel).
func (src *scanSource) requestDictCodes(col string, d *groupDict) {
	if d == nil {
		return
	}
	src.codeDict, src.codeCol = d, col
}

// skipMorsel consults the zone maps covering rows [lo, hi): true when some
// conjunct cannot hold anywhere in the range.
func (src *scanSource) skipMorsel(lo, hi int) bool {
	for _, z := range src.zones {
		if z.skipInt != nil {
			if mn, mx := z.zm.IntBounds(lo, hi); z.skipInt(mn, mx) {
				return true
			}
		} else {
			if mn, mx := z.zm.FloatBounds(lo, hi); z.skipFloat(mn, mx) {
				return true
			}
		}
	}
	return false
}

// flushBloomStats folds the atomic tallies into the BloomRuntime records;
// called once, after the pipeline's workers have all finished.
func (src *scanSource) flushBloomStats() {
	for _, b := range src.bfs {
		if b.st != nil {
			b.st.Tested += b.tested.Load()
			b.st.Passed += b.passed.Load()
		}
	}
}

// runtime snapshots the scan's execution counters; called after the
// pipeline's workers folded their locals at Close.
func (src *scanSource) runtime() ScanRuntime {
	rt := ScanRuntime{
		Rel: src.s.Rel, Alias: src.s.Alias,
		Morsels:         src.morsels.Load(),
		ZoneSkipped:     src.zoneSkipped.Load(),
		ZoneSkippedRows: src.zoneSkippedRows.Load(),
	}
	for i, k := range src.kernels {
		rt.Preds = append(rt.Preds, PredRuntime{
			Pred: k.Label(), In: src.predIn[i].Load(), Out: src.predOut[i].Load(),
		})
	}
	return rt
}

// scanOp is the per-worker operator over a shared scanSource. All scratch —
// the selection vector, the Bloom key/hash gather buffers, the adaptive
// kernel chain and every tally — is per worker, allocated once in Open;
// the steady-state batch loop allocates only its output rows. Tallies fold
// into the source's atomics once per worker at Close (workers close before
// the pipeline joins them, so the fold always precedes the flush).
type scanOp struct {
	src   *scanSource
	chain *query.Chain
	sel   []int32
	keys  *[]int64 // keyVecPool scratch for batched Bloom key gathers
	hs    []uint64
	carry []uint64 // hash side channel scratch (separate from hs: later
	// Bloom probes overwrite hs, the carry must survive them)
	codes []int32 // dictCodes side channel scratch
	out   Batch   // reused output batch header

	localTested  []int64
	localPassed  []int64
	localMorsels int64
	localZoneSk  int64
	localZoneRow int64
}

func (o *scanOp) Open() error {
	src := o.src
	o.localTested = make([]int64, len(src.bfs))
	o.localPassed = make([]int64, len(src.bfs))
	if len(src.kernels) > 0 {
		o.chain = query.NewChain(src.kernels)
	}
	o.sel = make([]int32, src.morsel)
	if len(src.bfs) > 0 {
		kp := keyVecPool.Get().(*[]int64)
		if cap(*kp) < src.morsel {
			*kp = make([]int64, 0, src.morsel)
		}
		o.keys = kp
		o.hs = make([]uint64, src.morsel)
	}
	if src.carryIdx >= 0 {
		o.carry = make([]uint64, src.morsel)
	}
	if src.codeDict != nil {
		o.codes = make([]int32, src.morsel)
	}
	return nil
}

func (o *scanOp) Close() error {
	src := o.src
	for k, b := range src.bfs {
		b.tested.Add(o.localTested[k])
		b.passed.Add(o.localPassed[k])
	}
	src.morsels.Add(o.localMorsels)
	src.zoneSkipped.Add(o.localZoneSk)
	src.zoneSkippedRows.Add(o.localZoneRow)
	if o.chain != nil {
		for i, c := range o.chain.Counts() {
			src.predIn[i].Add(c.In)
			src.predOut[i].Add(c.Out)
		}
	}
	if o.keys != nil {
		*o.keys = (*o.keys)[:0]
		keyVecPool.Put(o.keys)
		o.keys = nil
	}
	return nil
}

// NextBatch claims a morsel, consults the zone maps, runs the adaptive
// kernel chain over the selection vector, then probes the Bloom filters
// over gathered key batches hashed once per batch. When a side channel was
// requested, the batch also carries the surviving hash vector of the carry
// Bloom probe and/or gathered group-dictionary codes.
func (o *scanOp) NextBatch() (*Batch, error) {
	src := o.src
	for {
		if src.stop != nil && src.stop.Load() {
			return nil, nil
		}
		lo := int(src.cursor.Add(int64(src.morsel))) - src.morsel
		if lo >= src.n {
			return nil, nil
		}
		hi := lo + src.morsel
		if hi > src.n {
			hi = src.n
		}
		start := time.Now()
		o.localMorsels++
		if len(src.zones) > 0 && src.skipMorsel(lo, hi) {
			o.localZoneSk++
			o.localZoneRow += int64(hi - lo)
			src.stats.observe(hi-lo, 0, time.Since(start))
			continue
		}
		sel := o.sel[:hi-lo]
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		if o.chain != nil {
			sel = o.chain.EvalBatch(sel)
		}
		var carry []uint64
		for k, b := range src.bfs {
			if len(sel) == 0 {
				break
			}
			o.localTested[k] += int64(len(sel))
			keys := (*o.keys)[:len(sel)]
			if b.vals2 != nil {
				for i, r := range sel {
					keys[i] = bloom.CombineKeys(b.vals[r], b.vals2[r])
				}
			} else {
				for i, r := range sel {
					keys[i] = b.vals[r]
				}
			}
			// One shared mix per key: HashVec fills the batch hash vector
			// and both filter probe positions derive from it.
			switch {
			case k == src.carryIdx:
				// This probe's hashes become the batch's hash channel:
				// hash into the carry buffer and compact it alongside sel.
				hs := hashtab.HashVec(keys, o.carry)
				sel, carry = b.h.FilterSelHashesCarry(hs, sel, hs)
			case carry != nil:
				// A later probe: compact the surviving carry in lockstep.
				hs := hashtab.HashVec(keys, o.hs)
				sel, carry = b.h.FilterSelHashesCarry(hs, sel, carry)
			default:
				hs := hashtab.HashVec(keys, o.hs)
				sel = b.h.FilterSelHashes(hs, sel)
			}
			o.localPassed[k] += int64(len(sel))
		}
		src.stats.observe(hi-lo, len(sel), time.Since(start))
		if len(sel) == 0 {
			continue
		}
		out := NewRowSetCap(query.NewRelSet(src.s.Rel), len(sel))
		out.cols[0] = append(out.cols[0], sel...)
		o.out = Batch{rows: out, sel: out.cols[0]}
		if carry != nil {
			o.out.hashes, o.out.hashRel, o.out.hashCol = carry, src.s.Rel, src.hashCol
		}
		if src.codeDict != nil {
			codes := o.codes[:len(sel)]
			gd := src.codeDict.codes
			for i, r := range sel {
				codes[i] = gd[r]
			}
			o.out.dictCodes, o.out.codeRel, o.out.codeCol = codes, src.s.Rel, src.codeCol
		}
		return &o.out, nil
	}
}

// ---------------------------------------------------------------------------
// Hash-join probe: batches stream against a shared, read-only hash table
// built by the join's build pipeline.

// hashTable is the shared result of a hash-build sink: the materialized
// build side, the gathered key columns, and the probe structure — flat
// unchained hashtab.JoinTables, one per partition when the build ran
// across workers (probes select the partition by key hash).
type hashTable struct {
	inner       *RowSet
	innerKeys   []int64
	innerHashes []uint64 // hashtab.Hash of innerKeys, computed once per build
	innerExtras [][]int64
	tabs        []*hashtab.JoinTable
}

// lookup returns the build rows matching key; h is hashtab.Hash(key),
// hashed once per probe batch by the caller and reused for partition
// selection and the directory probe.
func (ht *hashTable) lookup(key int64, h uint64) []int32 {
	t := ht.tabs[0]
	if len(ht.tabs) > 1 {
		t = ht.tabs[h%uint64(len(ht.tabs))]
	}
	return t.Lookup(key, h)
}

// tableBytes reports the probe structure's exact heap footprint, for
// broker accounting.
func (ht *hashTable) tableBytes() int64 {
	var b int64
	for _, t := range ht.tabs {
		b += t.Bytes()
	}
	return b
}

// hashVecPar computes hashtab.Hash for every key, fanning the mix across dop
// workers above the finish threshold. The vector is computed once per
// build side and shared by Bloom population, partition routing, and the
// directory build — the "hash once, use twice" contract.
func hashVecPar(keys []int64, dop int) []uint64 {
	n := len(keys)
	// Weight 2: one multiply-shift mix per 8-byte write.
	if !parallelFinishThreshold(n, 2, dop) {
		return hashtab.HashVec(keys, nil)
	}
	out := make([]uint64, n)
	var wg sync.WaitGroup
	var trap panicTrap
	for c := 0; c < dop; c++ {
		lo, hi := c*n/dop, (c+1)*n/dop
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer trap.catch()
			for i := lo; i < hi; i++ {
				out[i] = hashtab.Hash(keys[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	trap.rethrow()
	return out
}

// gatherBuildKeys materializes the build side's key columns and hash
// vector — split from buildHashTableFrom so the hash-build sink can feed
// the same keys and hashes to Bloom population before the table build.
func gatherBuildKeys(ex *executor, j *plan.Join, inner *RowSet) (*hashTable, error) {
	if len(j.Conds) == 0 {
		return nil, fmt.Errorf("exec: hash join with no conditions")
	}
	switch j.JoinType {
	case query.Inner, query.Semi, query.Anti, query.Left:
	default:
		return nil, fmt.Errorf("exec: unsupported hash join type %s", j.JoinType)
	}
	c0 := j.Conds[0]
	dop := ex.dop
	if dop < 1 {
		dop = 1
	}
	ht := &hashTable{
		inner:     inner,
		innerKeys: keyColumnPar(inner, ex.tables[c0.InnerRel], c0.InnerRel, c0.InnerCol, dop),
	}
	if len(ht.innerKeys) > hashtab.MaxRows {
		return nil, fmt.Errorf("exec: hash build side of %d rows exceeds the int32 row-id domain", len(ht.innerKeys))
	}
	ht.innerHashes = hashVecPar(ht.innerKeys, dop)
	for _, c := range j.Conds[1:] {
		ht.innerExtras = append(ht.innerExtras,
			keyColumnPar(inner, ex.tables[c.InnerRel], c.InnerRel, c.InnerCol, dop))
	}
	return ht, nil
}

// buildHashTableFrom builds the probe structure over gathered keys: a
// count-then-scatter shuffle over flat arrays distributes row ids into
// contiguous per-partition segments (embarrassingly parallel, no
// per-partition maps, no append growth), and each partition owner builds
// its flat unchained JoinTable from its segment. Every O(n) phase is
// parallel across dop workers, so the breaker's finish time scales with
// DOP instead of being the executor's serial tail. Payload order is
// ascending build-row id per key.
func buildHashTableFrom(ex *executor, ht *hashTable) (*hashTable, error) {
	n := len(ht.innerKeys)
	nparts := ex.dop
	if nparts < 1 {
		nparts = 1
	}
	// The hash vector is transient build state (probes hash per batch);
	// release it once the directory is built.
	defer func() { ht.innerHashes = nil }()
	// Weight 12: directory inserts dominate; the shuffle only pays off
	// once per-partition build work amortizes the goroutine fan-outs.
	if nparts == 1 || !parallelFinishThreshold(n, 12, nparts) {
		t, err := hashtab.Build(ht.innerKeys, ht.innerHashes, nil)
		if err != nil {
			return nil, err
		}
		ht.tabs = []*hashtab.JoinTable{t}
		return ht, nil
	}
	// Count-then-scatter shuffle: producers count rows per partition,
	// a prefix pass turns the (producer, partition) counts into disjoint
	// cursors over one flat id buffer, and producers scatter row ids into
	// their reserved ranges — each partition's segment stays in ascending
	// row order because producers cover ascending ranges in order.
	counts := make([]int32, nparts*nparts) // [producer][partition]
	var wg sync.WaitGroup
	var trap panicTrap
	for c := 0; c < nparts; c++ {
		lo, hi := c*n/nparts, (c+1)*n/nparts
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			defer trap.catch()
			row := counts[c*nparts : (c+1)*nparts]
			for ii := lo; ii < hi; ii++ {
				row[ht.innerHashes[ii]%uint64(nparts)]++
			}
		}(c, lo, hi)
	}
	wg.Wait()
	trap.rethrow()
	offs := make([]int32, nparts+1) // partition segment bounds in ids
	cur := make([]int32, nparts*nparts)
	var pos int32
	for p := 0; p < nparts; p++ {
		offs[p] = pos
		for c := 0; c < nparts; c++ {
			cur[c*nparts+p] = pos
			pos += counts[c*nparts+p]
		}
	}
	offs[nparts] = pos
	ids := make([]int32, n)
	for c := 0; c < nparts; c++ {
		lo, hi := c*n/nparts, (c+1)*n/nparts
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			defer trap.catch()
			row := cur[c*nparts : (c+1)*nparts]
			for ii := lo; ii < hi; ii++ {
				p := ht.innerHashes[ii] % uint64(nparts)
				ids[row[p]] = int32(ii)
				row[p]++
			}
		}(c, lo, hi)
	}
	wg.Wait()
	trap.rethrow()
	ht.tabs = make([]*hashtab.JoinTable, nparts)
	errs := make([]error, nparts)
	for p := 0; p < nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer trap.catch()
			ht.tabs[p], errs[p] = hashtab.Build(ht.innerKeys, ht.innerHashes, ids[offs[p]:offs[p+1]])
		}(p)
	}
	wg.Wait()
	trap.rethrow()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ht, nil
}

// buildHashTable gathers the build keys and builds the probe structure
// in one step — the path used by the grace drain, where Bloom filters
// were already populated from the spill files.
func buildHashTable(ex *executor, j *plan.Join, inner *RowSet) (*hashTable, error) {
	ht, err := gatherBuildKeys(ex, j, inner)
	if err != nil {
		return nil, err
	}
	return buildHashTableFrom(ex, ht)
}

// probeShared is the per-pipeline state of one hash-probe operator. In
// grace mode (the build side spilled) ht is nil and grace carries the
// partition state instead.
type probeShared struct {
	j       *plan.Join
	ht      *hashTable
	grace   *graceHashJoin
	outRels query.RelSet
	wiring  *colWiring
	// outerVals[e] maps a base-table row id of the outer key relation to
	// its key value; e=0 is the hash condition, the rest verify extras.
	outerVals [][]int64
	outerRels []int
	stats     *opStats
}

func (ex *executor) newProbeShared(j *plan.Join, ht *hashTable, g *graceHashJoin,
	inRels query.RelSet, stats *opStats, workers int, rec *spillCounters) (*probeShared, error) {
	sh := &probeShared{
		j: j, ht: ht,
		outRels: inRels.Union(j.Inner.Rels()),
		stats:   stats,
	}
	sh.wiring = newColWiring(sh.outRels, inRels, j.Inner.Rels())
	for _, c := range j.Conds {
		col, err := ex.tables[c.OuterRel].Column(c.OuterCol)
		if err != nil {
			return nil, fmt.Errorf("exec: probe column: %w", err)
		}
		sh.outerVals = append(sh.outerVals, col.Ints)
		sh.outerRels = append(sh.outerRels, c.OuterRel)
	}
	if g != nil {
		res := ex.memq.Reserve(fmt.Sprintf("grace drain %s", j.Method))
		if err := g.initProbe(inRels, sh.outerRels[0], sh.outerVals[0], workers, rec, res); err != nil {
			return nil, err
		}
		sh.grace = g
	}
	return sh, nil
}

// probeScratch is one worker's reusable probe-batch scratch: the
// per-condition outer row-id columns, the gathered key and hash vectors,
// the match-pair vectors, and the reused output row set — recycled across
// morsels so the steady-state vectorized probe loop allocates nothing.
// (Reusing the output is safe under the batch ownership contract: sinks
// and downstream operators consume each batch before the worker's next
// NextBatch on this operator.)
type probeScratch struct {
	outerIDs [][]int32
	keys     []int64
	hashes   []uint64
	// candO/candI are the match-pair vectors of the probe phase; outO/outI
	// hold the gap-filled pairs of a Left join after the extras filter.
	candO, candI []int32
	outO, outI   []int32
	codes        []int32
	out          *RowSet
	outBatch     Batch
}

// ensureOut returns the reusable output row set sized to n rows.
func (scr *probeScratch) ensureOut(rels query.RelSet, n int) *RowSet {
	if scr.out == nil {
		scr.out = NewRowSetCap(rels, n)
	}
	rs := scr.out
	for c := range rs.cols {
		if cap(rs.cols[c]) < n {
			rs.cols[c] = make([]int32, n)
		}
		rs.cols[c] = rs.cols[c][:n]
	}
	return rs
}

// probeOp streams batches from child through the hash table (or, in grace
// mode, through the partition files — see graceNext).
type probeOp struct {
	sh    *probeShared
	ex    *executor
	child PhysicalOperator
	scr   probeScratch
	gw    *graceProbeWorker
}

func (o *probeOp) Open() error {
	if o.sh.grace != nil {
		o.gw = newGraceProbeWorker(o.sh.grace)
	}
	return o.child.Open()
}

func (o *probeOp) Close() error {
	if o.gw != nil {
		// An erroring or cancelled worker must still retire from the
		// writer barrier, or sibling workers would wait forever — and
		// must release its streaming pair's read handle.
		o.gw.finishWriting()
		o.gw.closeActive()
	}
	return o.child.Close()
}

// matchIn verifies the extra (non-hash) conditions for one candidate pair
// against the given hash table (grace mode probes per-partition tables,
// so the table is a parameter rather than sh.ht).
func (sh *probeShared) matchIn(ht *hashTable, outerIDs [][]int32, oi int, ii int32) bool {
	for e := 1; e < len(sh.outerVals); e++ {
		if sh.outerVals[e][outerIDs[e][oi]] != ht.innerExtras[e-1][ii] {
			return false
		}
	}
	return true
}

// probeBatch is the vectorized probe kernel: it joins one input batch
// against ht and returns the output batch. It is shared by the streaming
// NextBatch path and the grace drain, which probes reloaded partition
// chunks through the same code so every join type and extra condition
// behaves identically. The returned batch is scr-backed scratch, valid
// until the next call. It runs in three phases. Gather:
// resolve the per-condition outer row-id columns once, gather the key
// column through them into scratch, and hash the whole vector once via
// HashVec — or reuse the batch's carried hash vector when the scan's
// Bloom probe already mixed this column. Probe: a tight monomorphic loop
// per JoinType walks the flat directory and emits match-pair vectors
// (outer batch position, build row id); extra non-hash conditions run as
// a vectorized post-filter, one column loop per condition, over the pair
// vectors. Emit: bulk per-column gathers driven by the pair vectors
// materialize the output columns through the precomputed wiring. Output
// row order is ascending outer position, ascending build row id within a
// key (the payload order).
func (sh *probeShared) probeBatch(ht *hashTable, in *Batch, scr *probeScratch) *Batch {
	n := in.rows.Len()
	gatherStart := time.Now()
	if cap(scr.outerIDs) < len(sh.outerRels) {
		scr.outerIDs = make([][]int32, len(sh.outerRels))
	}
	outerIDs := scr.outerIDs[:len(sh.outerRels)]
	for e, rel := range sh.outerRels {
		outerIDs[e] = in.rows.Col(rel)
	}
	keyIDs, keyVals := outerIDs[0], sh.outerVals[0]
	if cap(scr.keys) < n {
		scr.keys = make([]int64, n)
	}
	keys := scr.keys[:n]
	for oi := 0; oi < n; oi++ {
		keys[oi] = keyVals[keyIDs[oi]]
	}
	reused := 0
	hs := in.hashesFor(sh.outerRels[0], sh.j.Conds[0].OuterCol)
	if hs != nil {
		reused = n
	} else {
		if cap(scr.hashes) < n {
			scr.hashes = make([]uint64, n)
		}
		hs = hashtab.HashVec(keys, scr.hashes)
	}
	gatherWall := time.Since(gatherStart)

	probeStart := time.Now()
	extras := len(sh.outerVals) > 1
	candO, candI := scr.candO[:0], scr.candI[:0]
	switch sh.j.JoinType {
	case query.Inner:
		for oi := 0; oi < n; oi++ {
			for _, ii := range ht.lookup(keys[oi], hs[oi]) {
				candO = append(candO, int32(oi))
				candI = append(candI, ii)
			}
		}
		if extras {
			candO, candI = sh.filterExtras(ht, outerIDs, candO, candI)
		}
	case query.Semi:
		// First passing match per outer row; the extras check inlines
		// because it decides which candidate is "first".
		for oi := 0; oi < n; oi++ {
			for _, ii := range ht.lookup(keys[oi], hs[oi]) {
				if extras && !sh.matchIn(ht, outerIDs, oi, ii) {
					continue
				}
				candO = append(candO, int32(oi))
				candI = append(candI, ii)
				break
			}
		}
	case query.Anti:
		for oi := 0; oi < n; oi++ {
			found := false
			for _, ii := range ht.lookup(keys[oi], hs[oi]) {
				if !extras || sh.matchIn(ht, outerIDs, oi, ii) {
					found = true
					break
				}
			}
			if !found {
				candO = append(candO, int32(oi))
				candI = append(candI, nullRow)
			}
		}
	case query.Left:
		for oi := 0; oi < n; oi++ {
			for _, ii := range ht.lookup(keys[oi], hs[oi]) {
				candO = append(candO, int32(oi))
				candI = append(candI, ii)
			}
		}
		if extras {
			candO, candI = sh.filterExtras(ht, outerIDs, candO, candI)
		}
	}
	scr.candO, scr.candI = candO, candI // keep grown backing arrays
	pairO, pairI := candO, candI
	if sh.j.JoinType == query.Left {
		// Gap fill: candO is ascending, so one merge walk emits every
		// surviving match and null-extends outer rows with none.
		outO, outI := scr.outO[:0], scr.outI[:0]
		k := 0
		for oi := 0; oi < n; oi++ {
			had := false
			for k < len(candO) && candO[k] == int32(oi) {
				outO = append(outO, int32(oi))
				outI = append(outI, candI[k])
				k++
				had = true
			}
			if !had {
				outO = append(outO, int32(oi))
				outI = append(outI, nullRow)
			}
		}
		scr.outO, scr.outI = outO, outI
		pairO, pairI = outO, outI
	}
	probeWall := time.Since(probeStart)

	emitStart := time.Now()
	np := len(pairO)
	out := scr.ensureOut(sh.outRels, np)
	w := sh.wiring
	for c := range out.cols {
		dst := out.cols[c]
		if w.fromOuter[c] {
			src := in.rows.cols[w.srcPos[c]]
			for k, oi := range pairO {
				dst[k] = src[oi]
			}
		} else {
			src := ht.inner.cols[w.srcPos[c]]
			for k, ii := range pairI {
				if ii < 0 {
					dst[k] = nullRow
				} else {
					dst[k] = src[ii]
				}
			}
		}
	}
	scr.outBatch = Batch{rows: out}
	if in.dictCodes != nil {
		// Re-gather the group-code channel through the pair vectors; the
		// code relation always sits on the outer (probe) spine, so pairO
		// indexes it even for null-extended rows.
		if cap(scr.codes) < np {
			scr.codes = make([]int32, np)
		}
		codes := scr.codes[:np]
		for k, oi := range pairO {
			codes[k] = in.dictCodes[oi]
		}
		scr.outBatch.dictCodes = codes
		scr.outBatch.codeRel, scr.outBatch.codeCol = in.codeRel, in.codeCol
	}
	sh.stats.observePhases(gatherWall, probeWall, time.Since(emitStart), reused)
	return &scr.outBatch
}

// filterExtras is the vectorized post-filter for extra (non-hash equality)
// join conditions: one column loop per condition compacts the match-pair
// vectors in place, preserving order.
func (sh *probeShared) filterExtras(ht *hashTable, outerIDs [][]int32, candO, candI []int32) ([]int32, []int32) {
	for e := 1; e < len(sh.outerVals); e++ {
		ov, ids, iv := sh.outerVals[e], outerIDs[e], ht.innerExtras[e-1]
		w := 0
		for k := range candO {
			if ov[ids[candO[k]]] == iv[candI[k]] {
				candO[w], candI[w] = candO[k], candI[k]
				w++
			}
		}
		candO, candI = candO[:w], candI[:w]
	}
	return candO, candI
}

func (o *probeOp) NextBatch() (*Batch, error) {
	if o.gw != nil {
		return o.graceNext()
	}
	sh := o.sh
	for {
		// Morsel-boundary stop/yield discipline, as in the scan sources: a
		// highly selective probe can spin through many empty-output batches,
		// so each iteration honors the run-wide stop flag and offers the
		// worker slot back to the scheduler before claiming more input.
		if o.ex != nil && o.ex.stop.Load() {
			return nil, nil
		}
		in, err := o.child.NextBatch()
		if err != nil || in == nil {
			return nil, err
		}
		start := time.Now()
		out := sh.probeBatch(sh.ht, in, &o.scr)
		sh.stats.observe(in.Len(), out.Len(), time.Since(start))
		if out.Len() > 0 {
			return out, nil
		}
		if o.ex != nil && !o.ex.maybeYield() {
			return nil, errSlotLost
		}
	}
}

// ---------------------------------------------------------------------------
// Nested-loop probe: quadratic fallback against a materialized inner.

// nlInner is the materialized inner input of a nested-loop join with its
// per-condition key arrays (indexed by inner row position).
type nlInner struct {
	rs   *RowSet
	keys [][]int64
}

type nlShared struct {
	j       *plan.Join
	inner   *nlInner
	outRels query.RelSet
	wiring  *colWiring
	// outerVals / outerRels as in probeShared, one entry per condition.
	outerVals [][]int64
	outerRels []int
	stats     *opStats
}

func (ex *executor) newNLShared(j *plan.Join, inner *nlInner, inRels query.RelSet, stats *opStats) (*nlShared, error) {
	if j.JoinType != query.Inner {
		return nil, fmt.Errorf("exec: nested loop supports inner joins only, got %s", j.JoinType)
	}
	sh := &nlShared{
		j: j, inner: inner,
		outRels: inRels.Union(j.Inner.Rels()),
		stats:   stats,
	}
	sh.wiring = newColWiring(sh.outRels, inRels, inner.rs.rels)
	for _, c := range j.Conds {
		col, err := ex.tables[c.OuterRel].Column(c.OuterCol)
		if err != nil {
			return nil, fmt.Errorf("exec: nested-loop column: %w", err)
		}
		sh.outerVals = append(sh.outerVals, col.Ints)
		sh.outerRels = append(sh.outerRels, c.OuterRel)
	}
	return sh, nil
}

type nlProbeOp struct {
	sh    *nlShared
	child PhysicalOperator
	out   Batch
}

func (o *nlProbeOp) Open() error  { return o.child.Open() }
func (o *nlProbeOp) Close() error { return o.child.Close() }

func (o *nlProbeOp) NextBatch() (*Batch, error) {
	sh := o.sh
	for {
		b, err := o.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		in := b.rows
		start := time.Now()
		n := in.Len()
		m := sh.inner.rs.Len()
		out := NewRowSetCap(sh.outRels, n)
		outerIDs := make([][]int32, len(sh.outerRels))
		for e, rel := range sh.outerRels {
			outerIDs[e] = in.Col(rel)
		}
		for oi := 0; oi < n; oi++ {
			for ii := 0; ii < m; ii++ {
				good := true
				for e := range sh.outerVals {
					if sh.outerVals[e][outerIDs[e][oi]] != sh.inner.keys[e][ii] {
						good = false
						break
					}
				}
				if good {
					out.appendJoined(sh.wiring, in, oi, sh.inner.rs, ii)
				}
			}
		}
		sh.stats.observe(n, out.Len(), time.Since(start))
		if out.Len() > 0 {
			o.out = Batch{rows: out}
			return &o.out, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Merge-join source: both inputs were sorted by breaker pipelines; a shared
// serial merge hands out result batches under a mutex while the pipeline's
// workers run the downstream operators on them in parallel.

// sortedInput is one sorted, materialized merge-join input.
type sortedInput struct {
	rs *RowSet
	// idx is the row order sorted by keys; keys/extras are indexed by raw
	// row position (pre-sort).
	idx    []int
	keys   []int64
	extras [][]int64
}

type mergeSource struct {
	j       *plan.Join
	outRels query.RelSet
	wiring  *colWiring
	morsel  int
	stats   *opStats
	stop    *atomic.Bool

	mu           sync.Mutex
	outer, inner *sortedInput
	oi, ii       int // merge positions in sorted order
	oe, ie       int // current equal-key run ends
	a, b         int // product cursors within the run
	inRun        bool
	done         bool
}

func (ex *executor) newMergeSource(j *plan.Join, outer, inner *sortedInput, stats *opStats) (*mergeSource, error) {
	if j.JoinType != query.Inner {
		return nil, fmt.Errorf("exec: merge join supports inner joins only, got %s", j.JoinType)
	}
	if len(j.Conds) == 0 {
		return nil, fmt.Errorf("exec: merge join with no conditions")
	}
	return &mergeSource{
		j: j, outRels: j.Rels(), morsel: ex.morsel, stats: stats,
		wiring: newColWiring(j.Rels(), outer.rs.rels, inner.rs.rels),
		outer:  outer, inner: inner, stop: &ex.stop,
	}, nil
}

type mergeSourceOp struct {
	src *mergeSource
	out Batch
}

func (o *mergeSourceOp) Open() error  { return nil }
func (o *mergeSourceOp) Close() error { return nil }

func (o *mergeSourceOp) NextBatch() (*Batch, error) {
	m := o.src
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done || (m.stop != nil && m.stop.Load()) {
		return nil, nil
	}
	start := time.Now()
	out := NewRowSetCap(m.outRels, m.morsel)
	scanned := 0
	for out.Len() < m.morsel {
		if m.inRun {
			// Emit the (a, b) candidate of the current equal-key run's
			// cross product, verifying extra conditions.
			oa, ib := m.outer.idx[m.a], m.inner.idx[m.b]
			good := true
			for e := range m.outer.extras {
				if m.outer.extras[e][oa] != m.inner.extras[e][ib] {
					good = false
					break
				}
			}
			if good {
				out.appendJoined(m.wiring, m.outer.rs, oa, m.inner.rs, ib)
			}
			m.b++
			if m.b == m.ie {
				m.b = m.ii
				m.a++
				if m.a == m.oe {
					m.inRun = false
					m.oi, m.ii = m.oe, m.ie
				}
			}
			continue
		}
		if m.oi >= len(m.outer.idx) || m.ii >= len(m.inner.idx) {
			m.done = true
			break
		}
		ok, ik := m.outer.keys[m.outer.idx[m.oi]], m.inner.keys[m.inner.idx[m.ii]]
		switch {
		case ok < ik:
			m.oi++
			scanned++
		case ok > ik:
			m.ii++
			scanned++
		default:
			m.oe = m.oi
			for m.oe < len(m.outer.idx) && m.outer.keys[m.outer.idx[m.oe]] == ok {
				m.oe++
			}
			m.ie = m.ii
			for m.ie < len(m.inner.idx) && m.inner.keys[m.inner.idx[m.ie]] == ik {
				m.ie++
			}
			// Every input row of the run is consumed exactly once here,
			// so RowsIn counts true merge input rows.
			scanned += (m.oe - m.oi) + (m.ie - m.ii)
			m.a, m.b = m.oi, m.ii
			m.inRun = true
		}
	}
	m.stats.observe(scanned, out.Len(), time.Since(start))
	if out.Len() == 0 {
		if !m.done {
			// Batch filled nothing but the merge is not finished (cannot
			// happen: an empty batch implies exhausted inputs) — guard
			// against looping forever anyway.
			m.done = true
		}
		return nil, nil
	}
	o.out = Batch{rows: out}
	return &o.out, nil
}
