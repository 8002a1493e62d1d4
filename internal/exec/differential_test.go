package exec

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/query"
)

// The differential suite, in the manner of SQLancer: seeded random
// select-project-join blocks over the TPC-H schema — two to six relations,
// random join trees with cycles, nested semi/anti/left units, predicates
// with NaN constants, empty and absent IN lists and dictionary constants
// missing from the data, and random aggregates — each planned in all four
// optimizer modes and run at DOP 1 and 4, unlimited and under tinyBudget,
// then checked against the oracle, for its result tuples and (except
// under tinyBudget at DOP 1) its aggregates. The seeds are a fixed corpus in
// testdata/differential_seeds.txt; a seed that once exposed a defect is
// appended there so it keeps being replayed.

const (
	// diffSF keeps every table small (lineitem ~6k rows) so a block's 28
	// runs, 12 of them spilling every join, stay under a second.
	diffSF = 0.001
	// diffMaxRows bounds a generated block's result; larger blocks (and
	// most empty ones) are regenerated from the same seed's stream.
	diffMaxRows = 20_000
)

var (
	diffOnce sync.Once
	diffDS   *datagen.Dataset
	diffErr  error
)

func differentialDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	diffOnce.Do(func() {
		diffDS, diffErr = datagen.Generate(datagen.Config{ScaleFactor: diffSF, Seed: 12})
	})
	if diffErr != nil {
		t.Fatal(diffErr)
	}
	return diffDS
}

// differentialSeeds reads the fixed seed corpus.
func differentialSeeds(t *testing.T) []int64 {
	t.Helper()
	f, err := os.Open("testdata/differential_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seeds []int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("seed corpus: %v", err)
		}
		seeds = append(seeds, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("seed corpus is empty")
	}
	return seeds
}

func TestDifferentialRandomBlocks(t *testing.T) {
	ds := differentialDataset(t)
	modes := []optimizer.Mode{optimizer.NoBF, optimizer.BFPost, optimizer.BFCBO, optimizer.Naive}
	spillRoot := t.TempDir()
	for _, seed := range differentialSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := &diffGen{rng: rand.New(rand.NewSource(seed)), ds: ds}
			var b *query.Block
			var specs []AggSpec
			var oc *oracleCase
			for {
				b, specs = g.block(fmt.Sprintf("diff%d", seed))
				oc = newOracleCase(t, ds.DB, b)
				// Keep some empty results, but mostly blocks with rows.
				if n := len(oc.tuples); n <= diffMaxRows && (n > 0 || g.rng.Intn(4) == 0) {
					break
				}
			}
			defer func() {
				if t.Failed() {
					t.Logf("block (%d result rows), aggregates %+v:\n%s", len(oc.tuples), specs, b)
				}
			}()
			for _, mode := range modes {
				opts := optimizer.DefaultOptions(diffSF)
				opts.Mode = mode
				opts.MaxPlansPerSet = 50_000
				res, err := optimizer.Optimize(b, opts)
				if err == optimizer.ErrSearchSpaceExceeded {
					continue
				}
				if err != nil {
					t.Fatalf("%s: optimize: %v", mode, err)
				}
				for _, dop := range []int{1, 4} {
					for _, budget := range []int64{0, tinyBudget} {
						lbl := fmt.Sprintf("%s dop %d budget %d", mode, dop, budget)
						ropts := Options{DOP: dop, MemBudget: budget, SpillDir: spillRoot}
						r, err := Run(ds.DB, b, res.Plan, ropts)
						if err != nil {
							t.Fatalf("%s: %v\n%s", lbl, err, res.Plan.Explain())
						}
						oc.check(t, lbl, res.Plan, r)
						// A spilling run costs tens of milliseconds in spill
						// file churn, and the aggregation sink is the same
						// above spilled joins at either DOP: aggregate under
						// the tiny budget at DOP 4 only.
						if budget == 0 || dop == 4 {
							ropts.Aggregates = specs
							r, err = Run(ds.DB, b, res.Plan, ropts)
							if err != nil {
								t.Fatalf("%s aggregates: %v", lbl, err)
							}
							oc.checkAggs(t, lbl, specs, r, false)
						}
						if t.Failed() {
							t.Logf("%s plan:\n%s", lbl, res.Plan.Explain())
							return
						}
					}
				}
			}
		})
	}
	assertNoSpillFiles(t, spillRoot)
}
