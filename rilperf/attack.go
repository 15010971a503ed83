package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// The attack-c7552 suite: suiteLocks RIL locks of the c7552 profile at
// scale 0.1, alternating between the two block counts below (2x2
// blocks, 18 and 36 key bits). README.md explains why the suite uses
// many small locks rather than two dozen 64- and 90-bit ones.
const (
	suiteScale = 0.1
	suiteLocks = 160
	keyPrefix  = "keyinput"
	// verifyTimeout bounds each exact key-equivalence proof.
	verifyTimeout = 60 * time.Second
)

var suiteBlocks = []int{2, 4}

// lockFile is one locked circuit of the suite as the attacker gets it:
// a .bench file and the key file that activates the oracle chip.
type lockFile struct {
	name, bench, key string
}

// buildSuite synthesizes the circuit, locks it suiteLocks times with
// seeds derived from seed, and writes each lock to dir. It returns the
// files plus the synthesis and per-lock times.
func buildSuite(dir string, seed int64) ([]lockFile, time.Duration, []float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, nil, err
	}
	t0 := time.Now()
	orig, err := synthesizeC7552()
	if err != nil {
		return nil, 0, nil, err
	}
	synth := time.Since(t0)
	var files []lockFile
	var lockMS []float64
	for i := 0; i < suiteLocks; i++ {
		blocks := suiteBlocks[i%len(suiteBlocks)]
		t := time.Now()
		res, err := core.Lock(orig, core.Options{Blocks: blocks, Size: core.Size2x2, Seed: deriveSeed(seed, i)})
		if err != nil {
			return nil, 0, nil, fmt.Errorf("lock %d: %w", i, err)
		}
		lockMS = append(lockMS, ms(time.Since(t)))
		f := lockFile{
			name:  fmt.Sprintf("c7552-%dx2x2-%03d", blocks, i),
			bench: filepath.Join(dir, fmt.Sprintf("lock%03d.bench", i)),
			key:   filepath.Join(dir, fmt.Sprintf("lock%03d.key", i)),
		}
		var bench, key bytes.Buffer
		if err := res.Locked.WriteBench(&bench); err != nil {
			return nil, 0, nil, err
		}
		for j, name := range res.KeyNames {
			fmt.Fprintf(&key, "%s=%d\n", name, b2i(res.Key[j]))
		}
		if err := os.WriteFile(f.bench, bench.Bytes(), 0o644); err != nil {
			return nil, 0, nil, err
		}
		if err := os.WriteFile(f.key, key.Bytes(), 0o644); err != nil {
			return nil, 0, nil, err
		}
		files = append(files, f)
	}
	return files, synth, lockMS, nil
}

func synthesizeC7552() (*netlist.Netlist, error) {
	prof, ok := circuit.ProfileByName("c7552")
	if !ok {
		return nil, fmt.Errorf("no c7552 profile")
	}
	return prof.Synthesize(suiteScale)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rssLocks is how many locks of the suite, in suite order, are attacked
// once more, each in a process of its own, to measure memory.
const rssLocks = 48

// attackProbe is the child side of attack-c7552's memory probe: it
// attacks the lock in bench, with its key file beside it, and prints its
// peak resident set in MB. It fails unless the key is found.
func attackProbe(bench string) int {
	f := lockFile{name: filepath.Base(bench), bench: bench, key: strings.TrimSuffix(bench, ".bench") + ".key"}
	r, err := attackOnce(f, nil)
	if err == nil && r.res.Status != attack.KeyFound {
		err = fmt.Errorf("status %s", r.res.Status)
	}
	var mb float64
	if err == nil {
		mb, err = peakRSSMB()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
		return 1
	}
	fmt.Println(mb)
	return 0
}

// attackRun is one finished attack with what its check needs.
type attackRun struct {
	res     *attack.SATResult
	queries int
	locked  *netlist.Netlist
	keyPos  []int
	chip    *netlist.Netlist // the oracle chip: locked with the true key
	wall    time.Duration
	cpu     time.Duration
}

// opTrace receives the spans of one traced operation; nil records
// nothing.
type opTrace struct {
	rec  *recorder
	op   int
	root int
}

func (t *opTrace) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.rec.begin(t.op, parent, name)
}

func (t *opTrace) end(id int) {
	if t != nil {
		t.rec.end(id)
	}
}

// handoff ends span prev, if any, and begins the next child of parent
// at the same instant.
func (t *opTrace) handoff(prev, parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.rec.handoff(prev, t.op, parent, name)
}

// attackOnce mirrors cmd/satattack on one lock: read the files, parse
// the netlist, build the simulated oracle from the key, run the exact
// SAT attack on one thread with no journal and no cache.
func attackOnce(f lockFile, tr *opTrace) (*attackRun, error) {
	start, cpu0 := time.Now(), cpuTime()
	sp := tr.handoff(0, tr.rootID(), "io.read")
	raw, err := os.ReadFile(f.bench)
	if err != nil {
		return nil, err
	}
	keyText, err := os.ReadFile(f.key)
	if err != nil {
		return nil, err
	}

	sp = tr.handoff(sp, tr.rootID(), "netlist.parse")
	locked, err := netlist.ParseBench(f.name, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}

	sp = tr.handoff(sp, tr.rootID(), "attack.oracle_build")
	keyPos := locked.GateIDsByPrefix(keyPrefix)
	key, err := parseKey(string(keyText), locked, keyPos)
	if err != nil {
		return nil, err
	}
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		return nil, err
	}
	sim, err := attack.NewSimOracle(bound)
	if err != nil {
		return nil, err
	}

	var opts attack.SATOptions
	var oracle attack.Oracle = sim
	var satSpan, seg int
	if tr != nil {
		// Segments tile the SAT attack at its Progress callbacks:
		// entry to the first DIP, one segment per later DIP, and the
		// final UNSAT proof plus key extraction after the last one.
		// Oracle queries are spans inside the segment that made them.
		satSpan = tr.handoff(sp, tr.root, "attack.sat")
		seg = tr.begin(satSpan, "attack.first_dip")
		oracle = &tracedOracle{Oracle: sim, tr: tr, seg: &seg}
		opts.Progress = func(attack.Progress) {
			seg = tr.handoff(seg, satSpan, "attack.dip")
		}
	}
	res, err := attack.SATAttack(locked, keyPos, oracle, opts)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.end(seg)
		tr.rec.rename(seg, "attack.final")
		tr.end(satSpan)
	}
	return &attackRun{res: res, queries: sim.Queries(), locked: locked, keyPos: keyPos, chip: bound,
		wall: time.Since(start), cpu: cpuTime() - cpu0}, nil
}

func (t *opTrace) rootID() int {
	if t == nil {
		return 0
	}
	return t.root
}

// tracedOracle records a span around every oracle query.
type tracedOracle struct {
	attack.Oracle
	tr  *opTrace
	seg *int
}

func (o *tracedOracle) Query(in []bool) []bool {
	sp := o.tr.begin(*o.seg, "attack.oracle")
	out := o.Oracle.Query(in)
	o.tr.end(sp)
	return out
}

// parseKey reads the name=bit key file format into keyPos order.
func parseKey(text string, locked *netlist.Netlist, keyPos []int) ([]bool, error) {
	byName := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, bit, ok := strings.Cut(strings.TrimSpace(sc.Text()), "=")
		if !ok {
			continue
		}
		byName[name] = bit == "1"
	}
	key := make([]bool, len(keyPos))
	for i, p := range keyPos {
		v, ok := byName[locked.Gates[locked.Inputs[p]].Name]
		if !ok {
			return nil, fmt.Errorf("key file lacks %s", locked.Gates[locked.Inputs[p]].Name)
		}
		key[i] = v
	}
	return key, nil
}

// verifyRun checks that the attack converged and that its key makes
// the locked circuit exactly equivalent to the oracle chip, by a SAT
// proof on the miter rather than by sampling.
func verifyRun(r *attackRun) error {
	if r.res.Status != attack.KeyFound {
		return fmt.Errorf("status %s", r.res.Status)
	}
	got, err := r.locked.BindInputs(r.keyPos, r.res.Key)
	if err != nil {
		return err
	}
	eq, _, err := attack.EquivalentSAT(got, r.chip, verifyTimeout)
	if err != nil {
		return err
	}
	if !eq {
		return fmt.Errorf("recovered key is not equivalent")
	}
	return nil
}

// suiteCounts are the work counters that must repeat exactly for a
// given seed.
type suiteCounts struct {
	dips, queries int
	solver        sat.Stats
}

func (c *suiteCounts) add(r *attackRun) {
	c.dips += r.res.Iterations
	c.queries += r.queries
	c.solver.Add(r.res.Solver)
}

func runAttack(e *env) (*outcome, error) {
	type built struct {
		files  []lockFile
		synth  time.Duration
		lockMS []float64
	}
	suite, setupWall, setupCPU, err := timeSetup(5, func(i int) (built, error) {
		files, synth, lockMS, err := buildSuite(filepath.Join(e.dir, fmt.Sprintf("suite%d", i)), e.seed)
		return built{files, synth, lockMS}, err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	if e.trace {
		return tracedAttack(e, suite.files, suite.synth, suite.lockMS, out)
	}
	out.add("setup_s", "s", setupCPU)
	out.detail("setup_wall_s", "s", setupWall)

	// Timed part: whole passes over the suite, one attack at a time.
	// Another pass starts only if it should end within the budget. The
	// first pass proves every key exactly equivalent right after its
	// attack, off the timed clock, so no run outlives its check and peak
	// RSS is the heaviest single attack or proof. Later passes repeat
	// the same attacks, so they only need the same counts. A pass's
	// time is the sum of its attacks' wall times.
	var passWall, attackS, passCPU, attackCPU []float64
	var firstCounts suiteCounts
	var timed time.Duration
	for pass := 0; ; pass++ {
		var counts suiteCounts
		var wall, cpu time.Duration // the attacks' own time: no collection, no check
		for _, f := range suite.files {
			out.attempted++
			// Start from a collected heap, as a fresh satattack process
			// would, so neither the time nor the peak memory of an
			// attack depends on the garbage that earlier attacks and
			// checks left behind.
			runtime.GC()
			r, err := attackOnce(f, nil)
			if err != nil {
				out.fail("%s: %v", f.name, err)
				continue
			}
			wall += r.wall
			cpu += r.cpu
			attackS = append(attackS, r.wall.Seconds())
			attackCPU = append(attackCPU, ms(r.cpu))
			counts.add(r)
			if pass == 0 {
				if err := verifyRun(r); err != nil {
					out.fail("%s: %v", f.name, err)
				}
			}
		}
		timed += wall
		passWall = append(passWall, wall.Seconds())
		passCPU = append(passCPU, cpu.Seconds())
		if pass == 0 {
			firstCounts = counts
		} else if counts != firstCounts {
			out.fail("pass %d repeated different work: %+v, first pass %+v", pass, counts, firstCounts)
		}
		if timed+wall > e.seconds {
			break
		}
	}
	// The operation is one attack, the bulk one pass over the suite.
	out.add("op_cpu_ms", "ms", quantile(attackCPU, 0.5))
	out.add("bulk_cpu_s", "s", quantile(passCPU, 0.5))
	out.detail("attack_s.p50", "s", quantile(attackS, 0.5))
	out.detail("attack_suite_s", "s", quantile(passWall, 0.5))

	// Memory, after the timed part: a satattack user runs one process
	// per lock, so the figure is the mean over the first rssLocks locks
	// of the peak resident set of a process that attacks only that lock.
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var rss []float64
	for _, f := range suite.files[:rssLocks] {
		mb, err := childRSS(exe, "--attack-probe", f.bench)
		if err != nil {
			out.fail("%s: %v", f.name, err)
			continue
		}
		rss = append(rss, mb)
	}
	out.add("peak_rss_mb", "MB", sum(rss)/float64(len(rss)))
	out.detail("peak_rss_mb.max", "MB", quantile(rss, 1))
	fmt.Printf("suite: %d locks, %d passes, %d DIPs, %d conflicts\n",
		len(suite.files), len(passWall), firstCounts.dips, firstCounts.solver.Conflicts)
	return out, nil
}

// tracedAttack attacks every lock twice, once traced and once not, in
// alternating order, so the trace overhead is measured on identical
// work. The per-layer figures come from the traced attacks.
func tracedAttack(e *env, files []lockFile, synth time.Duration, lockMS []float64, out *outcome) (*outcome, error) {
	rec := e.rec
	var traced, plain time.Duration
	var counts suiteCounts
	var solveCalls int64 // by the traced attacks
	var verifyMS []float64
	for i, f := range files {
		out.attempted++
		var r *attackRun
		for k := 0; k < 2; k++ {
			runtime.GC() // as in the untraced run, and outside any span
			if (i+k)%2 == 0 {
				p, err := attackOnce(f, nil)
				if err != nil {
					out.fail("%s: %v", f.name, err)
					break
				}
				plain += p.wall
				continue
			}
			tr := &opTrace{rec: rec, op: rec.newOp()}
			tr.root = rec.begin(tr.op, 0, "attack")
			var err error
			calls := sat.SolveCallsTotal()
			r, err = attackOnce(f, tr)
			rec.end(tr.root)
			solveCalls += sat.SolveCallsTotal() - calls
			if err != nil {
				out.fail("%s: %v", f.name, err)
				break
			}
			traced += r.wall
		}
		if r == nil {
			continue
		}
		counts.add(r)
		t := time.Now()
		err := verifyRun(r)
		verifyMS = append(verifyMS, ms(time.Since(t)))
		if err != nil {
			out.fail("%s: %v", f.name, err)
		}
	}
	spans := rec.snapshot()

	// Probes outside the attack spans: template compile and stamp.
	var compileMS, stampUS []float64
	for _, f := range files {
		raw, err := os.ReadFile(f.bench)
		if err != nil {
			return nil, err
		}
		locked, err := netlist.ParseBench(f.name, bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		t := time.Now()
		tmpl, err := cnf.CompileTemplate(locked)
		if err != nil {
			return nil, err
		}
		compileMS = append(compileMS, ms(time.Since(t)))
		s := sat.New()
		gv, _ := tmpl.Stamp(s, nil)
		shared := map[int]cnf.Var{}
		for _, p := range locked.GateIDsByPrefix(keyPrefix) {
			shared[p] = gv.Inputs[p]
		}
		for k := 0; k < 8; k++ {
			t := time.Now()
			tmpl.Stamp(s, shared)
			stampUS = append(stampUS, us(time.Since(t)))
		}
	}

	worst, broken := closure(spans, "attack")
	for _, b := range broken {
		out.fail("closure: %s", b)
	}
	dur := layerTimes(spans, false)
	self := layerTimes(spans, true)
	toMS := func(xs []float64) []float64 {
		r := make([]float64, len(xs))
		for i, x := range xs {
			r[i] = x / 1e6
		}
		return r
	}
	satNS := sum(dur["attack.sat"])
	oracleNS := sum(dur["attack.oracle"])
	out.detail("circuit.synthesize_ms", "ms", ms(synth))
	out.detail("core.lock_ms.p50", "ms", quantile(lockMS, 0.5))
	out.detail("netlist.parse_ms.p50", "ms", quantile(toMS(dur["netlist.parse"]), 0.5))
	out.detail("attack.oracle_build_ms.p50", "ms", quantile(toMS(dur["attack.oracle_build"]), 0.5))
	out.detail("attack.first_dip_ms.p50", "ms", quantile(toMS(dur["attack.first_dip"]), 0.5))
	out.detail("attack.dip_self_ms.p50", "ms", quantile(toMS(self["attack.dip"]), 0.5))
	out.detail("attack.dip_self_ms.p99", "ms", quantile(toMS(self["attack.dip"]), 0.99))
	out.detail("attack.final_ms.p50", "ms", quantile(toMS(dur["attack.final"]), 0.5))
	out.detail("attack.oracle_us.p50", "us", quantile(dur["attack.oracle"], 0.5)/1e3)
	out.detail("attack.oracle_share", "ratio", oracleNS/sum(dur["attack"]))
	out.detail("attack.dips", "count", float64(counts.dips))
	out.detail("sat.conflicts", "count", float64(counts.solver.Conflicts))
	out.detail("sat.decisions", "count", float64(counts.solver.Decisions))
	out.detail("sat.propagations", "count", float64(counts.solver.Propagations))
	out.detail("sat.props_per_s", "1/s", float64(counts.solver.Propagations)/(satNS/1e9))
	out.detail("cnf.compile_template_ms.p50", "ms", quantile(compileMS, 0.5))
	out.detail("cnf.stamp_us.p50", "us", quantile(stampUS, 0.5))
	out.detail("verify.exact_ms.p50", "ms", quantile(verifyMS, 0.5))
	addStages(out, spans, "attack", stageSpans{
		load:   []string{"io.read", "netlist.parse", "attack.oracle_build"},
		work:   []string{"attack.first_dip", "attack.dip"},
		finish: []string{"attack.final"},
	})
	out.add("attack.oracle_queries", "count", float64(counts.queries))
	out.add("sat.solve_calls", "count", float64(solveCalls))
	out.add("trace.overhead_pct", "%", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())
	out.add("trace.unattributed_pct.max", "%", 100*worst)
	return out, nil
}
