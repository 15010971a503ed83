package attack

import (
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// Key-sensitization attack (Yasin et al., the paper's [1]): for each
// key bit the attacker searches for an input pattern that propagates
// that bit to a primary output *regardless of the other key bits* —
// the output value on the oracle then reveals the bit directly, no
// key-space search needed. Random XOR locking frequently admits such
// patterns; RIL-Blocks interleave every key bit with many others
// through the MUX lattice, so golden patterns rarely exist.

// SensitizeResult reports a sensitization run.
type SensitizeResult struct {
	Resolved   int    // key bits recovered via golden patterns
	Unresolved int    // key bits with no golden pattern found
	Key        []bool // recovered values (meaningful where Mask is true)
	Mask       []bool // which bits were resolved
	Queries    int    // oracle queries spent
	Elapsed    time.Duration
}

func (r *SensitizeResult) String() string {
	return fmt.Sprintf("sensitization: %d/%d key bits resolved with %d oracle queries in %v",
		r.Resolved, r.Resolved+r.Unresolved, r.Queries, r.Elapsed.Round(time.Millisecond))
}

// Sensitize runs the key-sensitization attack. For each key bit i it
// solves the 2QBF-style query  ∃X ∀K_rest: C(X, ki=0) ≠ C(X, ki=1)
// with a CEGAR loop (candidate pattern from one solver, countermodel
// from another); a pattern that survives is golden: one oracle query
// fixes bit i. perBitBudget bounds the CEGAR iterations per bit.
//
// Golden patterns are swept through the oracle's BatchOracle fast
// path, 64 patterns per word-level simulation, after the per-bit CEGAR
// search; each pattern still costs exactly one counted query and the
// oracle sees them in bit order, so Queries and the recovered key are
// identical to the per-bit scalar probing this replaces.
func Sensitize(locked *netlist.Netlist, keyPos []int, oracle Oracle, perBitBudget int, timeout time.Duration) (*SensitizeResult, error) {
	start := time.Now()
	funcPos, err := splitInputs(locked, keyPos)
	if err != nil {
		return nil, err
	}
	if oracle.NumInputs() != len(funcPos) {
		return nil, fmt.Errorf("attack: sensitize: oracle arity mismatch")
	}
	decodeSim, err := netlist.NewSimulator(locked)
	if err != nil {
		return nil, err
	}
	res := &SensitizeResult{
		Key:  make([]bool, len(keyPos)),
		Mask: make([]bool, len(keyPos)),
	}
	deadline := time.Time{}
	if timeout > 0 {
		deadline = start.Add(timeout)
	}

	// One probe per golden pattern found; the oracle sweep runs
	// batched once the (SAT-bound) searches are done.
	type probe struct {
		bit, outIdx int
		pattern     []bool
	}
	var pending []probe
	for bit := range keyPos {
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.Unresolved = len(keyPos) - bit + res.Unresolved
			break
		}
		pattern, outIdx, ok, err := goldenPattern(locked, keyPos, funcPos, bit, perBitBudget, deadline)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.Unresolved++
			continue
		}
		pending = append(pending, probe{bit: bit, outIdx: outIdx, pattern: pattern})
		res.Queries++
		res.Resolved++
	}

	// Sweep the golden patterns through the oracle: full groups of 64
	// via QueryWords, the remainder as scalar queries, in bit order
	// either way. The observed output reveals each bit: since the
	// pattern is golden, output outIdx is k ⊕ c for a fixed polarity,
	// so comparing against the locked circuit at ki=0 (rest arbitrary,
	// all zeros here) decodes the oracle's value.
	batch := AsBatch(oracle)
	words := make([]uint64, len(funcPos))
	inBuf := make([]bool, len(funcPos))
	outBuf := make([]uint64, oracle.NumOutputs())
	zeroKey := make([]bool, len(keyPos))
	for startIdx := 0; startIdx < len(pending); startIdx += 64 {
		n := len(pending) - startIdx
		if n > 64 {
			n = 64
		}
		for i := range words {
			words[i] = 0
		}
		for lane := 0; lane < n; lane++ {
			for i, v := range pending[startIdx+lane].pattern {
				if v {
					words[i] |= 1 << uint(lane)
				}
			}
		}
		var out []uint64
		if n == 64 {
			out = batch.QueryWords(words)
		} else {
			out = queryLanes(oracle, words, n, inBuf, outBuf)
		}
		for lane := 0; lane < n; lane++ {
			p := pending[startIdx+lane]
			observed := out[p.outIdx]&(1<<uint(lane)) != 0
			v0 := evalLockedAt(decodeSim, keyPos, funcPos, zeroKey, p.pattern, p.outIdx)
			res.Key[p.bit] = observed != v0 // if oracle differs, ki = 1
			res.Mask[p.bit] = true
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// goldenPattern searches for an input X and output index o such that
// flipping key bit `bit` flips output o for EVERY assignment of the
// remaining key bits.
func goldenPattern(locked *netlist.Netlist, keyPos, funcPos []int, bit, budget int, deadline time.Time) ([]bool, int, bool, error) {
	// Candidate solver: two copies sharing X and K_rest, ki=0 vs ki=1,
	// some output differs.
	sharedRest := append([]int(nil), funcPos...)
	for j, p := range keyPos {
		if j != bit {
			sharedRest = append(sharedRest, p)
		}
	}
	enc := cnf.NewEncoder()
	c1, c2, err := encodePair(enc, locked, locked, sharedRest)
	if err != nil {
		return nil, 0, false, err
	}
	enc.AssertLit(cnf.MkLit(c1.Inputs[keyPos[bit]], true))  // ki = 0 in copy 1
	enc.AssertLit(cnf.MkLit(c2.Inputs[keyPos[bit]], false)) // ki = 1 in copy 2
	diffs := xorOutputs(enc, c1, c2)
	enc.F.AddClause(diffs...)

	cand := sat.New()
	if !cand.AddFormula(enc.F) {
		return nil, 0, false, nil
	}
	if !deadline.IsZero() {
		cand.SetDeadline(deadline)
	}

	for iter := 0; iter < budget; iter++ {
		if cand.Solve() != sat.Sat {
			return nil, 0, false, nil
		}
		pattern := make([]bool, len(funcPos))
		for i, p := range funcPos {
			pattern[i] = cand.ModelValue(cnf.MkLit(c1.Inputs[p], false))
		}
		outIdx := -1
		for i, d := range diffs {
			if cand.ModelValue(d) {
				outIdx = i
				break
			}
		}
		if outIdx < 0 {
			return nil, 0, false, nil
		}
		// Verify universality in two parts. First: no assignment of the
		// remaining key bits makes the outputs agree (the bit always
		// propagates). Second: the ki=0 output value is the SAME for
		// every K_rest — without value-constancy the oracle observation
		// cannot be decoded (the bit would leak XOR some other bits).
		agree, err := solvePinned(locked, keyPos, funcPos, sharedRest, bit, true, pattern, outIdx, false, deadline)
		if err != nil {
			return nil, 0, false, err
		}
		if agree != sat.Sat {
			differ, err := solvePinned(locked, keyPos, funcPos, funcPos, bit, false, pattern, outIdx, true, deadline)
			if err != nil {
				return nil, 0, false, err
			}
			if differ == sat.Unsat {
				return pattern, outIdx, true, nil // golden
			}
		}
		// Block this (pattern, outIdx) pair: require a different input
		// pattern or a different differing output next time. Simplest
		// complete refinement: forbid the exact input pattern when only
		// this output differs — conservatively forbid the pattern.
		blocking := make([]cnf.Lit, 0, len(funcPos))
		for i, p := range funcPos {
			blocking = append(blocking, cnf.MkLit(c1.Inputs[p], pattern[i]))
		}
		cand.AddClause(blocking...)
	}
	return nil, 0, false, nil
}

// solvePinned asks whether two copies of locked, sharing the inputs at
// shared, with the functional inputs fixed to pattern and key bit
// `bit` at 0 in copy 1 and at ki2 in copy 2, can make output outIdx
// differ (differ) or agree (!differ). A formula contradictory at
// construction answers Unsat; a timeout answers Unknown.
//
// With K_rest shared and ki2 = 1, Sat on agree is a countermodel to
// the bit always propagating. With K_rest free and ki2 = 0, Unsat on
// differ proves the ki=0 output value constant over K_rest.
func solvePinned(locked *netlist.Netlist, keyPos, funcPos, shared []int, bit int, ki2 bool,
	pattern []bool, outIdx int, differ bool, deadline time.Time) (sat.Status, error) {
	enc := cnf.NewEncoder()
	c1, c2, err := encodePair(enc, locked, locked, shared)
	if err != nil {
		return sat.Unknown, err
	}
	for i, p := range funcPos {
		enc.AssertLit(cnf.MkLit(c1.Inputs[p], !pattern[i]))
	}
	enc.AssertLit(cnf.MkLit(c1.Inputs[keyPos[bit]], true))
	enc.AssertLit(cnf.MkLit(c2.Inputs[keyPos[bit]], !ki2))
	x := xorOutputs(enc, c1, c2, outIdx)[0]
	if !differ {
		x = x.Not()
	}
	enc.AssertLit(x)

	s := sat.New()
	if !s.AddFormula(enc.F) {
		return sat.Unsat, nil
	}
	if !deadline.IsZero() {
		s.SetDeadline(deadline)
	}
	return s.Solve(), nil
}

// evalLockedAt simulates the locked netlist on (key, pattern) via the
// shared decode simulator and returns output outIdx.
func evalLockedAt(sim *netlist.Simulator, keyPos, funcPos []int, key, pattern []bool, outIdx int) bool {
	in := make([]bool, len(keyPos)+len(funcPos))
	for i, p := range keyPos {
		in[p] = key[i]
	}
	for i, p := range funcPos {
		in[p] = pattern[i]
	}
	return sim.Eval(in)[outIdx]
}
