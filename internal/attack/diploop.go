package attack

import (
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// Every oracle-guided attack in this package is a policy over one miter
// and one DIP loop. SATAttack is the loop alone; AppSAT adds periodic
// random-query reinforcement through the after-DIP hook; ScanSAT and
// SATAttackOneHot run the loop on a transformed netlist (and one-hot
// maps the key back). Journal/resume, portfolio solving, tracing and
// progress are properties of the loop, so every attack gets them.

// encodePair Tseitin-encodes a and then b into enc, b reusing a's
// input variables at the positions in shared.
func encodePair(enc *cnf.Encoder, a, b *netlist.Netlist, shared []int) (ga, gb *cnf.GateVars, err error) {
	ga, err = enc.Encode(a, nil)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[int]cnf.Var, len(shared))
	for _, p := range shared {
		m[p] = ga.Inputs[p]
	}
	gb, err = enc.Encode(b, m)
	if err != nil {
		return nil, nil, err
	}
	return ga, gb, nil
}

// xorOutputs encodes the XOR of the two copies' outputs at the given
// indices (every output when none are given) and returns its literals.
func xorOutputs(enc *cnf.Encoder, ga, gb *cnf.GateVars, outs ...int) []cnf.Lit {
	if outs == nil {
		outs = make([]int, len(ga.Outputs))
		for i := range outs {
			outs[i] = i
		}
	}
	diffs := make([]cnf.Lit, len(outs))
	for i, o := range outs {
		diffs[i] = cnf.MkLit(enc.EncodeXor2(
			cnf.MkLit(ga.Outputs[o], false),
			cnf.MkLit(gb.Outputs[o], false)), false)
	}
	return diffs
}

// miter is the two-copy SAT-attack miter of a locked netlist: two
// copies sharing the functional inputs with separate keys, at least one
// output differing behind an activation variable (so the same engine
// can later extract a key without the difference constraint), and the
// compiled template every DIP constraint is stamped from.
type miter struct {
	n               *netlist.Netlist
	funcPos, keyPos []int
	dipVars         []cnf.Var // copy 1's functional inputs
	key1, key2      []cnf.Var
	act             cnf.Var
	tmpl            *cnf.Template
	eng             sat.Engine
}

// newMiter builds the miter of n with the key inputs at keyPos. extra,
// when non-nil, adds base clauses over each copy in turn before BVA
// runs. The engine is sequential for portfolio < 2 and a racing
// portfolio otherwise.
func newMiter(n *netlist.Netlist, keyPos []int, bva bool, portfolio int, extra func(enc *cnf.Encoder, gv *cnf.GateVars)) (*miter, error) {
	funcPos, err := splitInputs(n, keyPos)
	if err != nil {
		return nil, err
	}
	enc := cnf.NewEncoder()
	c1, c2, err := encodePair(enc, n, n, funcPos)
	if err != nil {
		return nil, err
	}
	diffs := xorOutputs(enc, c1, c2)
	act := enc.F.NewVar()
	enc.F.AddClause(append(diffs, cnf.MkLit(act, true))...)
	if extra != nil {
		extra(enc, c1)
		extra(enc, c2)
	}
	if bva {
		cnf.BVA(enc.F, 4, 32)
	}
	// Every DIP iteration stamps two constrained copies from this
	// template instead of re-running the Tseitin encoder; the stamp
	// reproduces the encoder's exact variable and clause order.
	tmpl, err := cnf.CompileTemplate(n)
	if err != nil {
		return nil, err
	}
	eng := sat.NewEngine(portfolio)
	if !eng.AddFormula(enc.F) {
		return nil, fmt.Errorf("attack: base encoding unsatisfiable")
	}
	m := &miter{n: n, funcPos: funcPos, keyPos: keyPos, act: act, tmpl: tmpl, eng: eng,
		dipVars: make([]cnf.Var, len(funcPos)),
		key1:    make([]cnf.Var, len(keyPos)),
		key2:    make([]cnf.Var, len(keyPos)),
	}
	for i, p := range funcPos {
		m.dipVars[i] = c1.Inputs[p]
	}
	for i, p := range keyPos {
		m.key1[i] = c1.Inputs[p]
		m.key2[i] = c2.Inputs[p]
	}
	return m, nil
}

// findDIP solves for a distinguishing input: Sat with the DIP in the
// model, Unsat once the constraints pin the key's function down.
func (m *miter) findDIP() sat.Status { return m.eng.Solve(cnf.MkLit(m.act, false)) }

// dip reads the distinguishing input of the last Sat findDIP.
func (m *miter) dip() []bool {
	dip := make([]bool, len(m.dipVars))
	for i, v := range m.dipVars {
		dip[i] = m.eng.ModelValue(cnf.MkLit(v, false))
	}
	return dip
}

// key solves without the difference clause and returns any key
// consistent with every constraint so far; ok is false when the solve
// does not come back Sat.
func (m *miter) key() (key []bool, ok bool) {
	if m.eng.Solve(cnf.MkLit(m.act, true)) != sat.Sat {
		return nil, false
	}
	key = make([]bool, len(m.key1))
	for i, v := range m.key1 {
		key[i] = m.eng.Model()[v]
	}
	return key, true
}

// constrain adds the two constrained circuit copies of one DIP: each
// key copy must reproduce out on the input in.
func (m *miter) constrain(in, out []bool) error {
	for _, keyVars := range [][]cnf.Var{m.key1, m.key2} {
		shared := make(map[int]cnf.Var, len(m.keyPos))
		for i, p := range m.keyPos {
			shared[p] = keyVars[i]
		}
		gv, ok := m.tmpl.Stamp(m.eng, shared)
		if !ok {
			return fmt.Errorf("attack: DIP constraint made formula unsatisfiable")
		}
		for i, p := range m.funcPos {
			if !m.eng.AddClause(cnf.MkLit(gv.Inputs[p], !in[i])) {
				return fmt.Errorf("attack: DIP constraint made formula unsatisfiable")
			}
		}
		for i, ov := range gv.Outputs {
			m.eng.AddClause(cnf.MkLit(ov, !out[i]))
		}
	}
	return nil
}

// run is the DIP loop: find a DIP, ask the oracle (or the resume
// journal), constrain both key copies, repeat until no DIP remains and
// extract a key. It owns the iteration bound, cancellation, deadline,
// journal, replay, Trace and Progress of opt. afterDIP, when non-nil,
// runs after each DIP's constraint is added; returning true ends the
// attack with the status and key it left in res.
//
// A resumed attack's clock continues from the journaled elapsed time,
// so opt.Timeout bounds the whole attack, not each resume slice.
func (m *miter) run(start time.Time, oracle Oracle, opt SATOptions, afterDIP func(res *SATResult) (bool, error)) (*SATResult, error) {
	if oracle.NumInputs() != len(m.funcPos) || oracle.NumOutputs() != len(m.n.Outputs) {
		return nil, fmt.Errorf("attack: oracle has %d inputs and %d outputs, locked netlist has %d functional inputs and %d outputs",
			oracle.NumInputs(), oracle.NumOutputs(), len(m.funcPos), len(m.n.Outputs))
	}
	if opt.Context != nil {
		m.eng.SetContext(opt.Context)
	}
	var header JournalHeader
	var replay []JournalRecord
	if opt.Journal != nil || opt.Resume != nil {
		fp, err := Fingerprint(m.n, m.keyPos)
		if err != nil {
			return nil, err
		}
		header = JournalHeader{
			Version: JournalVersion, Circuit: m.n.Name,
			Inputs: len(m.funcPos), Outputs: len(m.n.Outputs),
			KeyBits: len(m.keyPos), BVA: opt.BVA, Fingerprint: fp,
			Portfolio: opt.Portfolio >= 2,
		}
	}
	constraintReplay := false
	if opt.Resume != nil {
		if err := opt.Resume.Header.matches(header); err != nil {
			return nil, err
		}
		if d := opt.Resume.Done; d != nil {
			// The journaled attack already finished: reconstruct its
			// result without touching solver or oracle.
			return resultFromDone(d)
		}
		replay = opt.Resume.Records
		constraintReplay = opt.Resume.Header.Portfolio || opt.Portfolio >= 2
		if n := len(replay); n > 0 {
			start = start.Add(-time.Duration(replay[n-1].ElapsedMS) * time.Millisecond)
		}
	}
	if opt.Journal != nil && !opt.Journal.HeaderWritten() {
		if err := opt.Journal.WriteHeader(header); err != nil {
			return nil, err
		}
	}
	if opt.Timeout > 0 {
		m.eng.SetDeadline(start.Add(opt.Timeout))
	}

	res := &SATResult{}
	if constraintReplay {
		// Portfolio replay: apply every journaled DIP constraint
		// directly, without solving. The oracle is never queried for
		// journaled records, and the live loop below starts from a
		// clause database equivalent to the original run's — same DIP
		// constraints, different learnt clauses.
		for _, rec := range replay {
			dip, err := parseBits(rec.DIP)
			if err != nil {
				return nil, err
			}
			out, err := parseBits(rec.Oracle)
			if err != nil {
				return nil, err
			}
			if err := m.constrain(dip, out); err != nil {
				// A journal for this circuit cannot contradict its own
				// encoding; a top-level conflict means the journal
				// belongs elsewhere.
				return nil, fmt.Errorf("attack: replaying iteration %d: %v: %w",
					rec.Iteration, err, ErrReplayDiverged)
			}
			res.Replayed++
			res.Iterations++
			if opt.Trace != nil {
				fmt.Fprintf(opt.Trace, "%d,%s,%s\n", res.Iterations, rec.DIP, rec.Oracle)
			}
		}
		replay = nil
	}

	for {
		if opt.MaxIterations > 0 && res.Iterations >= opt.MaxIterations {
			res.Status = Timeout
			break
		}
		if opt.Context != nil && opt.Context.Err() != nil {
			res.Status = Timeout
			break
		}
		st := m.findDIP()
		if st == sat.Unknown {
			res.Status = Timeout
			break
		}
		if st == sat.Unsat {
			// Converged: extract any key consistent with all DIPs.
			key, ok := m.key()
			if !ok {
				res.Status = Failed
				break
			}
			res.Key, res.Status = key, KeyFound
			break
		}

		dip := m.dip()
		var out []bool
		if res.Replayed < len(replay) {
			// Serve the oracle answer from the journal. The solver is
			// deterministic, so it must have rediscovered the journaled
			// DIP; anything else means the journal belongs to a
			// different circuit or solver version.
			rec := replay[res.Replayed]
			if got := bitString(dip); got != rec.DIP {
				return nil, fmt.Errorf("attack: iteration %d: solver found DIP %s, journal has %s: %w",
					res.Iterations+1, got, rec.DIP, ErrReplayDiverged)
			}
			if snap := m.eng.Snapshot(); snap != rec.Solver {
				return nil, fmt.Errorf("attack: iteration %d: solver state %+v does not match journal %+v: %w",
					res.Iterations+1, snap, rec.Solver, ErrReplayDiverged)
			}
			var err error
			if out, err = parseBits(rec.Oracle); err != nil {
				return nil, err
			}
			res.Replayed++
			res.Iterations++
		} else {
			out = oracle.Query(dip)
			res.Iterations++
			if opt.Journal != nil {
				err := opt.Journal.Append(JournalRecord{
					Iteration: res.Iterations,
					DIP:       bitString(dip),
					Oracle:    bitString(out),
					ElapsedMS: time.Since(start).Milliseconds(),
					Solver:    m.eng.Snapshot(),
				})
				if err != nil {
					return nil, err
				}
			}
		}
		if opt.Trace != nil {
			fmt.Fprintf(opt.Trace, "%d,%s,%s\n", res.Iterations, bitString(dip), bitString(out))
		}
		if opt.Progress != nil {
			opt.Progress(Progress{
				Iteration: res.Iterations,
				Elapsed:   time.Since(start),
				Solver:    m.eng.Stats(),
			})
		}
		if err := m.constrain(dip, out); err != nil {
			return nil, err
		}
		if afterDIP != nil {
			done, err := afterDIP(res)
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
		}
	}
	if res.Status != Timeout && res.Replayed < len(replay) {
		// A deterministic re-run must consume every journaled record
		// before it can converge; stopping short means the journal was
		// written by a different attack.
		return nil, fmt.Errorf("attack: converged after %d iterations but journal holds %d records: %w",
			res.Iterations, len(replay), ErrReplayDiverged)
	}
	res.Elapsed = time.Since(start)
	res.Solver = m.eng.Stats()
	// A converged (or terminally failed) attack gets a done record so
	// resuming its journal is a pure read; a timed-out attack does not
	// — its journal stays open-ended for the next resume slice.
	if opt.Journal != nil && (res.Status == KeyFound || res.Status == Failed) {
		d := JournalDone{
			Status:     res.Status.String(),
			Iterations: res.Iterations,
			ElapsedMS:  res.Elapsed.Milliseconds(),
			Solver:     m.eng.Snapshot(),
		}
		if res.Key != nil {
			d.Key = bitString(res.Key)
		}
		if err := opt.Journal.Finish(d); err != nil {
			return nil, err
		}
	}
	return res, nil
}
