package attack

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/testutil"
)

// The differential golden test for the shared miter and DIP loop.
// Every oracle-guided attack runs on three fixed locks and on seeded
// random instances. Everything observable about each run is rendered
// to text and compared byte for byte against testdata/diploop.golden:
// status, key, the DIP trace, iteration and oracle-query counts, the
// solver counters and the final solver snapshot. Any change to the
// miter's clause stream or to the loop's solve-call sequence shows up
// as a diff.
//
// Runs are sequential and carry no timeout, so they are deterministic.
// One-hot runs carry no Trace or Journal: the golden file predates
// SATAttackOneHot honouring them.

const (
	goldenPath      = "testdata/diploop.golden"
	goldenInstances = 1000
	goldenShort     = 100
)

func TestDIPLoopGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	n := goldenInstances
	if testing.Short() {
		n = goldenShort
		cut := bytes.Index(want, []byte(fmt.Sprintf("== rand %d\n", goldenShort)))
		if cut < 0 {
			t.Fatalf("%s has no instance %d", goldenPath, goldenShort)
		}
		want = want[:cut]
	}
	got := renderDIPLoopGolden(t, n)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", goldenPath, len(gl), len(wl))
}

// TestDIPLoopResumesCheckedInJournal resumes
// testdata/c432_satattack.journal, a c432/8x8/seed-432 journal written
// by the SATAttack that predates the shared DIP loop. The done record
// is dropped, so every journaled DIP is re-solved and checked against
// its journaled DIP bits and solver snapshot. The full journal must
// replay with zero oracle queries, a half journal must query exactly
// the rest, and both must land on the journaled key.
func TestDIPLoopResumesCheckedInJournal(t *testing.T) {
	raw, err := os.ReadFile("testdata/c432_satattack.journal")
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	done := data.Done
	if done == nil || done.Iterations != len(data.Records) {
		t.Fatalf("checked-in journal: done=%+v with %d records", done, len(data.Records))
	}
	fx := rilFixture(t, c432Profile(t), core.Size8x8, 432)
	for _, k := range []int{len(data.Records) / 2, len(data.Records)} {
		resume := &JournalData{Header: data.Header, Records: data.Records[:k]}
		oracle := fx.oracle(t)
		res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{Resume: resume})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Status != KeyFound || bitString(res.Key) != done.Key {
			t.Errorf("k=%d: resumed to %v key %s, journal has key %s", k, res.Status, bitString(res.Key), done.Key)
		}
		if res.Replayed != k || res.Iterations != done.Iterations {
			t.Errorf("k=%d: replayed %d of %d iterations, journal has %d", k, res.Replayed, res.Iterations, done.Iterations)
		}
		if got, want := oracle.Queries(), done.Iterations-k; got != want {
			t.Errorf("k=%d: %d oracle queries, want %d (zero re-queries)", k, got, want)
		}
	}
}

// renderDIPLoopGolden runs the fixed locks and the first n random
// instances and returns the rendered record.
func renderDIPLoopGolden(t *testing.T, n int) []byte {
	t.Helper()
	var b bytes.Buffer

	c17 := c17Circuit(t)
	for _, lk := range []struct {
		name string
		orig *netlist.Netlist
		size core.Size
		seed int64
		sens int // Sensitize's per-bit CEGAR budget
	}{
		{"c17/2x2/seed17", c17, core.Size2x2, 17, 4},
		{"c432/8x8/seed432", c432Profile(t), core.Size8x8, 432, 1},
	} {
		res, err := core.Lock(lk.orig, core.Options{Blocks: 1, Size: lk.size, Seed: lk.seed})
		if err != nil {
			t.Fatal(err)
		}
		var luts []string
		for _, blk := range res.Blocks {
			luts = append(luts, blk.LUTOut...)
		}
		fmt.Fprintf(&b, "== %s\n", lk.name)
		goldenAttacks(t, &b, res.Locked, res.KeyInputPos, res.Key, luts, DefaultAppSAT(), lk.sens)
		goldenOneHot(t, &b, res.Locked, res.KeyInputPos, res.Key, HintsFromRIL(res))
	}

	// The routing-only lock of TestOneHotBreaksRoutingOnlyLock.
	rl, err := netlist.Random(netlist.RandomProfile{
		Name: "rl", Inputs: 16, Outputs: 12, Gates: 300, Locality: 0.3,
	}, 51)
	if err != nil {
		t.Fatal(err)
	}
	l, net, err := baselines.RoutingLock(rl, 8, 52)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== routing-only/rl/width8\n")
	goldenAttacks(t, &b, l.Netlist, l.KeyPos, l.Key, net.OutputNames[:2], DefaultAppSAT(), 2)
	goldenOneHot(t, &b, l.Netlist, l.KeyPos, l.Key,
		[]RoutingHint{HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)})

	for i := 0; i < n; i++ {
		seed := int64(i)
		orig := testutil.RandomCircuit(t, 5+i%4, 2+i%3, 20+i%23, seed)
		locked, keyPos, key := testutil.XORLock(t, orig, 2+i%6, seed+7919)
		fmt.Fprintf(&b, "== rand %d\n", i)
		app := AppSATOptions{
			DIPsPerRound:   1 + i%3,
			RandomQueries:  8 + (i*37)%80,
			ErrorThreshold: []float64{0, 0.05}[i%2],
			MaxRounds:      1 + i%5,
			Seed:           seed,
		}
		goldenAttacks(t, &b, locked, keyPos, key, []string{"klock0"}, app, 1+i%4)
		// One-hot needs a routing network: lock the same circuit with a
		// small banyan, falling back to the narrowest width.
		for _, width := range []int{4, 2} {
			rl, net, err := baselines.RoutingLock(orig, width, seed+104729)
			if err != nil {
				continue
			}
			goldenOneHot(t, &b, rl.Netlist, rl.KeyPos, rl.Key,
				[]RoutingHint{HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)})
			break
		}
	}
	return b.Bytes()
}

// goldenAttacks renders SATAttack, AppSAT, ScanSAT (over the given
// scan points, against the functional oracle) and Sensitize on one
// lock, plus EquivalentSAT of the recovered and of a one-bit-wrong
// key against the correct one.
func goldenAttacks(t *testing.T, b *bytes.Buffer, locked *netlist.Netlist, keyPos []int, key []bool,
	scanPoints []string, app AppSATOptions, sensBudget int) {
	t.Helper()
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func() *SimOracle {
		o, err := NewSimOracle(bound)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	o := oracle()
	var trace, journal bytes.Buffer
	sr, err := SATAttack(locked, keyPos, o, SATOptions{Trace: &trace, Journal: NewJournal(&journal)})
	if err != nil {
		t.Fatal(err)
	}
	goldenSAT(t, b, "sat", sr, o.Queries(), &trace, journal.Bytes())

	o = oracle()
	ar, err := AppSAT(locked, keyPos, o, app)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "appsat status=%s key=%s est=%g rounds=%d dips=%d queries=%d\n",
		ar.Status, bitString(ar.Key), ar.ErrorEstimate, ar.Rounds, ar.DIPs, o.Queries())

	so, fo := oracle(), oracle()
	trace.Reset()
	journal.Reset()
	sc, err := ScanSAT(locked, keyPos, scanPoints, so, fo, SATOptions{Trace: &trace, Journal: NewJournal(&journal)})
	if err != nil {
		t.Fatal(err)
	}
	goldenSAT(t, b, "scansat", sc.SAT, so.Queries(), &trace, journal.Bytes())
	fmt.Fprintf(b, "scansat scan-err=%g func-err=%g defeated=%v func-queries=%d\n",
		sc.ScanError, sc.FunctionalError, sc.Defeated, fo.Queries())

	o = oracle()
	sz, err := Sensitize(locked, keyPos, o, sensBudget, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "sensitize resolved=%d unresolved=%d mask=%s key=%s queries=%d/%d\n",
		sz.Resolved, sz.Unresolved, bitString(sz.Mask), bitString(sz.Key), sz.Queries, o.Queries())

	if sr.Status == KeyFound {
		got, err := locked.BindInputs(keyPos, sr.Key)
		if err != nil {
			t.Fatal(err)
		}
		goldenEquiv(t, b, "recovered", bound, got)
	}
	wrong := append([]bool(nil), key...)
	wrong[0] = !wrong[0]
	bad, err := locked.BindInputs(keyPos, wrong)
	if err != nil {
		t.Fatal(err)
	}
	goldenEquiv(t, b, "flipped", bound, bad)
}

func goldenOneHot(t *testing.T, b *bytes.Buffer, locked *netlist.Netlist, keyPos []int, key []bool, hints []RoutingHint) {
	t.Helper()
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SATAttackOneHot(locked, keyPos, hints, o, SATOptions{})
	if err != nil {
		t.Fatal(err)
	}
	goldenSAT(t, b, "onehot", res.SAT, o.Queries(), nil, nil)
	fmt.Fprintf(b, "onehot realizable=%v key=%s\n", res.Realizable, bitString(res.Key))
}

// goldenSAT renders one SATResult with its oracle-query count, its DIP
// trace and, when a journal was written, the final solver snapshot
// (whose counters must equal the result's).
func goldenSAT(t *testing.T, b *bytes.Buffer, name string, r *SATResult, queries int, trace *bytes.Buffer, journal []byte) {
	t.Helper()
	fmt.Fprintf(b, "%s status=%s key=%s iters=%d replayed=%d queries=%d solver=%+v\n",
		name, r.Status, bitString(r.Key), r.Iterations, r.Replayed, queries, r.Solver)
	if journal != nil {
		data, err := ReadJournal(bytes.NewReader(journal))
		if err != nil {
			t.Fatal(err)
		}
		if data.Done == nil {
			t.Fatalf("%s: journal has no done record", name)
		}
		final := data.Done.Solver
		if final.Stats != r.Solver {
			t.Fatalf("%s: journal's final solver stats %v differ from the result's %v", name, final.Stats, r.Solver)
		}
		fmt.Fprintf(b, "%s final vars=%d clauses=%d\n", name, final.Vars, final.Clauses)
	}
	if trace != nil {
		fmt.Fprintf(b, "%s trace=%s\n", name, strings.ReplaceAll(strings.TrimSuffix(trace.String(), "\n"), "\n", ";"))
	}
}

func goldenEquiv(t *testing.T, b *bytes.Buffer, name string, x, y *netlist.Netlist) {
	t.Helper()
	eq, cex, err := EquivalentSAT(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "equiv %s eq=%v cex=%s\n", name, eq, bitString(cex))
}

// c17Circuit parses the checked-in ISCAS-85 c17.
func c17Circuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	f, err := os.Open("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig, err := netlist.ParseBench("c17", f)
	if err != nil {
		t.Fatal(err)
	}
	return orig
}
