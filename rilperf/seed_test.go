package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/cache"
)

// The workload seed is the benchmark's only input: one seed must give
// the same work every time, and another seed different work, so a
// seed held out while a change is written can check its claim.

func suiteBenches(t *testing.T, files []lockFile) []string {
	t.Helper()
	var out []string
	for _, f := range files {
		raw, err := os.ReadFile(f.bench)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(raw))
	}
	return out
}

func TestSeedFixesAttackSuite(t *testing.T) {
	dir := t.TempDir()
	build := func(name string, seed int64) []lockFile {
		files, _, _, err := buildSuite(filepath.Join(dir, name), seed)
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	a, b, other := build("a", 7), build("b", 7), build("c", 8)
	ba, bb, bo := suiteBenches(t, a), suiteBenches(t, b), suiteBenches(t, other)
	seen := map[string]bool{}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("seed 7 built lock %d differently twice", i)
		}
		seen[ba[i]] = true
	}
	shared := 0
	for _, s := range bo {
		if seen[s] {
			shared++
		}
	}
	if shared == len(bo) {
		t.Fatalf("seed 8 built the same %d locks as seed 7", shared)
	}

	// The work counters of an attack repeat exactly.
	const n = 6
	var ca, cb suiteCounts
	for i := 0; i < n; i++ {
		for _, c := range []struct {
			f   lockFile
			acc *suiteCounts
		}{{a[i], &ca}, {b[i], &cb}} {
			r, err := attackOnce(c.f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := verifyRun(r); err != nil {
				t.Fatalf("%s: %v", c.f.name, err)
			}
			c.acc.add(r)
		}
	}
	if ca != cb {
		t.Fatalf("seed 7 attacks did different work: %+v vs %+v", ca, cb)
	}
}

func TestSeedFixesFloodJobs(t *testing.T) {
	a, err := makeTargets(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeTargets(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	other, err := makeTargets(8, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 built job %d differently twice", i)
		}
	}
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed 8 built the same jobs as seed 7")
	}
}

// runtimes matches the timing digits of a table, the one part of it
// that legitimately differs between two runs of one seed.
var runtimes = regexp.MustCompile(`\d+\.\d{3}`)

func TestSeedFixesTables(t *testing.T) {
	dir := t.TempDir()
	cold := func(name string, seed int64) ([]string, []string) {
		t.Helper()
		e := &env{seed: seed, seconds: time.Second, dir: filepath.Join(dir, name)}
		c, err := cache.Open(e.dir, cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := runPass(e, e.dir, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		var tables []string
		for _, tb := range p.tables {
			tables = append(tables, runtimes.ReplaceAllString(tb, "t"))
		}
		var keys []string
		err = filepath.WalkDir(filepath.Join(e.dir, "entries"), func(path string, d os.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				keys = append(keys, d.Name())
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(keys)
		return tables, keys
	}
	ta, ka := cold("a", 7)
	tb, kb := cold("b", 7)
	_, ko := cold("c", 8)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("seed 7 table %d differs between runs:\n%s\n%s", i, ta[i], tb[i])
		}
	}
	if len(ka) != tableCount*len(tableBlocks) || !slices.Equal(ka, kb) {
		t.Fatalf("seed 7 cached %d and %d cells under different keys", len(ka), len(kb))
	}
	if slices.Equal(ka, ko) {
		t.Fatal("seed 8 produced the same cells as seed 7")
	}
}

func TestColdCellCheckRejectsUnbrokenCells(t *testing.T) {
	out := &outcome{}
	checkColdCells(out, []string{"0.123", "12.000", "inf", "n/a", "+Inf", "NaN", "", "-1.000"})
	if out.failed != 6 {
		t.Fatalf("%d cells failed, want 6 (all but the two runtimes): %v", out.failed, out.notes)
	}
}
