package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// expectedFile is the committed row count of every statement of one
// (workload, SF, data seed, workload seed). TPC-H workloads' statements
// do not depend on the workload seed, so their files carry none.
type expectedFile struct {
	Workload     string            `json:"workload"`
	SF           float64           `json:"sf"`
	DataSeed     uint64            `json:"data_seed"`
	WorkloadSeed *uint64           `json:"workload_seed,omitempty"`
	Rows         map[string]int    `json:"rows"`
	SQLHash      map[string]string `json:"sql_fnv64,omitempty"`
}

// dataSeed is the datagen seed every workload uses (0 = datagen's
// built-in default).
const dataSeed = 0

func expectedPath(dir string, w workload, seed uint64) string {
	name := fmt.Sprintf("%s_sf%s_data%d", w.name, strconv.FormatFloat(w.sf, 'f', -1, 64), dataSeed)
	if w.sql {
		name += fmt.Sprintf("_seed%d", seed)
	}
	return filepath.Join(dir, name+".json")
}

func sqlHash(sql string) string {
	h := fnv.New64a()
	h.Write([]byte(sql))
	return strconv.FormatUint(h.Sum64(), 16)
}

// loadExpected returns the expected row count per statement name. A
// generated workload's seed with no file returns nil: its results are
// then checked by cross-mode agreement alone. A TPC-H workload must have
// its file, and a file whose SQL hashes no longer match the generator is
// an error, not a silent pass.
func loadExpected(dir string, w workload, seed uint64, stmts []statement) (map[string]int, error) {
	path := expectedPath(dir, w, seed)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) && w.sql {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("expected row counts: %w", err)
	}
	var f expectedFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("expected row counts %s: %w", path, err)
	}
	for _, st := range stmts {
		if _, ok := f.Rows[st.name]; !ok {
			return nil, fmt.Errorf("expected row counts %s: no entry for %s", path, st.name)
		}
		if st.sql != "" && f.SQLHash[st.name] != sqlHash(st.sql) {
			return nil, fmt.Errorf("expected row counts %s: %s was generated from other SQL; regenerate with --write-expected", path, st.name)
		}
	}
	return f.Rows, nil
}

// writeExpected records the agreed row count of every statement.
func writeExpected(dir string, w workload, seed uint64, stmts []statement, rows map[string]int) (string, error) {
	f := expectedFile{Workload: w.name, SF: w.sf, DataSeed: dataSeed, Rows: rows}
	if w.sql {
		f.WorkloadSeed = &seed
		f.SQLHash = map[string]string{}
		for _, st := range stmts {
			f.SQLHash[st.name] = sqlHash(st.sql)
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := expectedPath(dir, w, seed)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write expected row counts: %w", err)
	}
	return path, nil
}

// gradeRows marks every sample whose row count is wrong and returns the
// agreed count per statement name. The truth is the committed count when
// there is one; otherwise the count most samples of the statement agree
// on, so any mode disagreeing with the others is marked.
func gradeRows(stmts []statement, expected map[string]int, samples []sample) map[string]int {
	counts := make([]map[int]int, len(stmts))
	for i := range counts {
		counts[i] = map[int]int{}
	}
	for _, s := range samples {
		if s.err == nil {
			counts[s.stmt][s.rows]++
		}
	}
	truth := map[string]int{}
	for i, st := range stmts {
		if want, ok := expected[st.name]; ok {
			truth[st.name] = want
			continue
		}
		vals := make([]int, 0, len(counts[i]))
		for v := range counts[i] {
			vals = append(vals, v)
		}
		sort.Ints(vals)
		best := -1
		for _, v := range vals {
			if best < 0 || counts[i][v] > counts[i][best] {
				best = v
			}
		}
		truth[st.name] = best
	}
	for i := range samples {
		s := &samples[i]
		if s.err == nil && s.rows != truth[stmts[s.stmt].name] {
			s.wrong = true
		}
	}
	return truth
}
