package attack

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/netlist"
)

func TestOneHotBreaksRoutingOnlyLock(t *testing.T) {
	// The one-layer re-encoding (paper §IV-B, following [11]) must
	// crack a routing-only (FullLock-style) network and map the
	// crossbar back to banyan switch settings.
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "rl", Inputs: 16, Outputs: 12, Gates: 300, Locality: 0.3,
	}, 51)
	if err != nil {
		t.Fatal(err)
	}
	l, net, err := baselines.RoutingLock(orig, 8, 52)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	hints := []RoutingHint{HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)}
	res, err := SATAttackOneHot(l.Netlist, l.KeyPos, hints, oracle, SATOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.SAT.Status != KeyFound {
		t.Fatalf("one-hot attack did not converge on a routing-only lock: %v", res.SAT)
	}
	if !res.Realizable {
		t.Fatal("recovered permutation not realizable on the banyan")
	}
	e, err := VerifyKey(l.Netlist, l.KeyPos, res.Key, oracle, 8, 53)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("mapped-back key error rate %v, want 0", e)
	}
}

func TestOneHotStillHardOnRIL(t *testing.T) {
	// Against full RIL-Blocks the coupled LUT layer keeps the relaxed
	// instance hard (the paper's §III-A design argument).
	orig := smallCircuit(t, 300, 54)
	res, err := core.Lock(orig, core.Options{Blocks: 2, Size: core.Size8x8x8, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	hints := HintsFromRIL(res)
	if len(hints) != 4 { // 2 blocks x (input + output banyan)
		t.Fatalf("expected 4 hints, got %d", len(hints))
	}
	ar, err := SATAttackOneHot(res.Locked, res.KeyInputPos, hints, oracle,
		SATOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ar.SAT.Status == KeyFound {
		if !ar.Realizable {
			t.Log("relaxed key found but not realizable — attack fails either way")
			return
		}
		e, err := VerifyKey(res.Locked, res.KeyInputPos, ar.Key, oracle, 8, 56)
		if err != nil {
			t.Fatal(err)
		}
		if e != 0 {
			t.Errorf("one-hot attack converged to a wrong key (err %v) — should be caught", e)
		}
		t.Skip("one-hot attack solved 2x 8x8x8 within 1s on this machine")
	}
}

func TestOneHotKeyEquivalenceOnSmallRIL(t *testing.T) {
	// On a small RIL instance the one-hot attack converges; the mapped
	// key must be functionally correct (even if bitwise different).
	orig := smallCircuit(t, 120, 57)
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size{K: 2, InputRouting: true, OutputRouting: true}, Seed: 58})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := SATAttackOneHot(res.Locked, res.KeyInputPos, HintsFromRIL(res), oracle,
		SATOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ar.SAT.Status != KeyFound {
		t.Skipf("2x2x2 one-hot attack did not converge: %v", ar.SAT)
	}
	if !ar.Realizable {
		t.Skip("relaxed permutation not realizable (over-approximate key space)")
	}
	e, err := VerifyKey(res.Locked, res.KeyInputPos, ar.Key, oracle, 8, 59)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("mapped key error rate %v, want 0", e)
	}
}

func TestRoutingLockBaseline(t *testing.T) {
	orig := smallCircuit(t, 200, 60)
	l, net, err := baselines.RoutingLock(orig, 8, 61)
	if err != nil {
		t.Fatal(err)
	}
	if net.Width != 8 || len(net.InputNames) != 8 || len(net.OutputNames) != 8 {
		t.Fatalf("network geometry %+v", net)
	}
	if l.KeyBits() != core.BanyanSwitchCount(8) {
		t.Errorf("key bits %d, want %d", l.KeyBits(), core.BanyanSwitchCount(8))
	}
	// Wrong keys must corrupt (routing obfuscation has real output
	// corruption, unlike point functions).
	wrong := append([]bool(nil), l.Key...)
	wrong[0] = !wrong[0]
	wb, err := l.Netlist.BindInputs(l.KeyPos, wrong)
	if err != nil {
		t.Fatal(err)
	}
	boundOK, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		t.Fatal(err)
	}
	eq, _, err := EquivalentSAT(boundOK, wb, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Log("flipping one switch produced an equivalent routing (possible for symmetric positions)")
	}
}

// routingOnlyFixture routes the circuit of
// TestOneHotBreaksRoutingOnlyLock through a width-8 banyan under the
// given seed (52 is that test's lock) and returns the banyan as the
// one-hot hint.
func routingOnlyFixture(t *testing.T, routeSeed int64) (*fixture, []RoutingHint) {
	t.Helper()
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "rl", Inputs: 16, Outputs: 12, Gates: 300, Locality: 0.3,
	}, 51)
	if err != nil {
		t.Fatal(err)
	}
	l, net, err := baselines.RoutingLock(orig, 8, routeSeed)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		t.Fatal(err)
	}
	hints := []RoutingHint{HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)}
	return &fixture{locked: l.Netlist, keyPos: l.KeyPos, bound: bound}, hints
}

// oneHotAttack adapts SATAttackOneHot to attackFunc: the returned
// result carries the mapped-back key, and a converged but unrealizable
// permutation fails the test.
func oneHotAttack(t *testing.T, hints []RoutingHint) attackFunc {
	return func(locked *netlist.Netlist, keyPos []int, oracle Oracle, opt SATOptions) (*SATResult, error) {
		res, err := SATAttackOneHot(locked, keyPos, hints, oracle, opt)
		if err != nil {
			return nil, err
		}
		if res.SAT.Status == KeyFound && !res.Realizable {
			t.Errorf("one-hot key not realizable on the banyan")
		}
		res.SAT.Key = res.Key
		return res.SAT, nil
	}
}

// TestOneHotJournalResumeZeroRequeries runs the shared resume check on
// the one-hot attack: killed after k DIPs at every k, the resumed
// attack re-queries nothing and maps back to the same key.
func TestOneHotJournalResumeZeroRequeries(t *testing.T) {
	fx, hints := routingOnlyFixture(t, 52)
	testJournalResumeZeroRequeries(t, fx, oneHotAttack(t, hints))
}

// TestOneHotPortfolio runs the one-hot attack on a 4-worker portfolio
// with Trace and Progress attached: it must still crack a routing-only
// lock, and both observers must see every DIP. Which exact key a
// portfolio returns depends on the winning worker. Under routing seed
// 53 both selector matrices consistent with the oracle map back onto
// banyan settings, so the result is realizable whichever worker wins.
// Under seed 52 one of the two is not.
func TestOneHotPortfolio(t *testing.T) {
	fx, hints := routingOnlyFixture(t, 53)
	var trace bytes.Buffer
	seen := 0
	oracle := fx.oracle(t)
	res, err := SATAttackOneHot(fx.locked, fx.keyPos, hints, oracle, SATOptions{
		Timeout: 2 * time.Minute, Portfolio: 4, Trace: &trace,
		Progress: func(p Progress) { seen = p.Iteration },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SAT.Status != KeyFound || !res.Realizable {
		t.Fatalf("portfolio one-hot: %v, realizable=%v", res.SAT, res.Realizable)
	}
	if e, err := VerifyKey(fx.locked, fx.keyPos, res.Key, oracle, 8, 53); err != nil || e != 0 {
		t.Errorf("mapped-back key error rate %v (%v), want 0", e, err)
	}
	if lines := strings.Count(trace.String(), "\n"); lines != res.SAT.Iterations || seen != res.SAT.Iterations {
		t.Errorf("%d DIPs, but %d trace lines and %d progress calls", res.SAT.Iterations, lines, seen)
	}
	if res.SAT.Solver.Decisions == 0 {
		t.Error("aggregated portfolio stats recorded no solver work")
	}
}
