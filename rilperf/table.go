package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sat"
)

// table-cache: report.SATRuntimeTable on the c7552 profile at scale
// 0.1 with a two-worker sweep and the result cache. One run's table
// set is tableCount tables, each with its own lock seed derived from
// the workload seed; each table has one cell per block count in
// tableBlocks, all 2x2. A pass regenerates the whole set, as one
// rilbench invocation would.
const (
	tableCount   = 48
	tableJobs    = 2
	tableTimeout = 20 * time.Second
)

var tableBlocks = []int{1, 2, 3, 4}

var tableSize = core.Size2x2

// tablePass is one regeneration of the table set.
type tablePass struct {
	tables []string // rendered, in set order
	cells  []string // every data cell of every table
	cellS  float64  // the runtimes the cold tables report, summed
	stats  cache.Stats
	wall   time.Duration
	cpu    time.Duration
	open   time.Duration // warm passes: reopening the cache
	render time.Duration // all tables, synthesis included
	synth  time.Duration
	gc     time.Duration // warm passes: cache.GC
}

// runPass renders the table set against c, opening it first when c
// is nil (a warm pass) and running cache GC at the end of warm passes.
// Its layer spans follow one another without a gap (handoff), so a
// pause between two layer calls lands in a layer, not between two.
func runPass(e *env, dir string, c *cache.Cache, tr *opTrace) (*tablePass, error) {
	p := &tablePass{}
	t0, cpu0 := time.Now(), cpuTime()
	warm := c == nil
	sp := 0
	if warm {
		sp = tr.handoff(sp, tr.rootID(), "cache.open")
		var err error
		if c, err = cache.Open(dir, cache.Options{}); err != nil {
			return nil, err
		}
		p.open = time.Since(t0)
	}
	sizes := []core.Size{tableSize}
	t1 := time.Now()
	sp = tr.handoff(sp, tr.rootID(), "circuit.synthesize")
	orig, err := synthesizeC7552()
	if err != nil {
		return nil, err
	}
	p.synth = time.Since(t1)
	for k := 0; k < tableCount; k++ {
		sp = tr.handoff(sp, tr.rootID(), "table.render")
		cfg := report.AttackConfig{Timeout: tableTimeout, Scale: suiteScale, Seed: deriveSeed(e.seed, k),
			Jobs: tableJobs, Cache: c}
		t, err := report.SATRuntimeTable(cfg, orig, tableBlocks, sizes)
		if err != nil {
			return nil, err
		}
		p.tables = append(p.tables, t.String())
		for _, row := range t.Rows {
			for _, cell := range row[1:] {
				p.cells = append(p.cells, cell)
				if v, ok := cellRuntime(cell); ok {
					p.cellS += v
				}
			}
		}
	}
	p.render = time.Since(t1)
	if warm {
		t2 := time.Now()
		sp = tr.handoff(sp, tr.rootID(), "cache.gc")
		if _, err := c.GC(); err != nil {
			return nil, err
		}
		p.gc = time.Since(t2)
	}
	tr.end(sp)
	p.stats = c.Stats()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	return p, nil
}

// prepareTables is the workload's set-up. It synthesizes the circuit
// and locks every cell of the seed's table set once, with the options
// and seed its table will use, so a seed with a cell that cannot lock
// is refused before any timing. Then it opens a fresh cache: its
// directories and a durably written master key.
func prepareTables(e *env, dir string) (*cache.Cache, error) {
	orig, err := synthesizeC7552()
	if err != nil {
		return nil, err
	}
	for k := 0; k < tableCount; k++ {
		for _, blocks := range tableBlocks {
			opts := core.Options{Blocks: blocks, Size: tableSize, Seed: deriveSeed(e.seed, k)}
			if _, err := core.Lock(orig, opts); err != nil {
				return nil, fmt.Errorf("table %d, %d blocks: %w", k, blocks, err)
			}
		}
	}
	return cache.Open(dir, cache.Options{})
}

// cellRuntime reads a table cell as the runtime of an attack that found
// the key. A timed-out or failed attack renders "inf", which ParseFloat
// would accept as +Inf. A cell whose lock or lint gate failed renders
// "n/a"; every cell of this table set locks and converges, so n/a is a
// failure here too.
func cellRuntime(cell string) (float64, bool) {
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
		return 0, false
	}
	return v, true
}

// checkColdCells fails the cold pass once for every cell that is not a
// key-found runtime.
func checkColdCells(out *outcome, cells []string) {
	for i, cell := range cells {
		if _, ok := cellRuntime(cell); !ok {
			out.fail("cold pass: cell %d of %d is %q, want a key-found runtime", i, len(cells), cell)
		}
	}
}

// warmProbe is the child side of table-cache's memory probe: one warm
// pass over the seed's table set from the cache in dir, which must hit
// every cell. It prints its peak resident set in MB.
func warmProbe(dir string, seed int64) int {
	p, err := runPass(&env{seed: seed}, dir, nil, nil)
	if err == nil && (int(p.stats.Hits) != tableCount*len(tableBlocks) || p.stats.Misses != 0) {
		err = fmt.Errorf("%v, want %d hits and no misses", p.stats, tableCount*len(tableBlocks))
	}
	var mb float64
	if err == nil {
		mb, err = peakRSSMB()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "warm probe: %v\n", err)
		return 1
	}
	fmt.Println(mb)
	return 0
}

// firstDiff is the index of the first table that differs between a and
// b, or -1 when they are equal.
func firstDiff(a, b []string) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			return k
		}
	}
	return -1
}

func runTable(e *env) (*outcome, error) {
	c, setupWall, setupCPU, err := timeSetup(5, func(i int) (*cache.Cache, error) {
		return prepareTables(e, filepath.Join(e.dir, fmt.Sprintf("cache%d", i)))
	})
	if err != nil {
		return nil, err
	}
	dir := c.Dir()
	cells := tableCount * len(tableBlocks)
	out := &outcome{}

	// The timed part, cold pass included, lasts the run's budget. The
	// cold pass fills the cache through Put.
	begin := time.Now()
	var coldTr *opTrace
	if e.trace {
		coldTr = &opTrace{rec: e.rec, op: e.rec.newOp()}
		coldTr.root = e.rec.begin(coldTr.op, 0, "table.cold")
	}
	// Each cell of the cold pass is one attack operation.
	out.attempted += cells
	queries, calls := attack.OracleQueriesTotal(), sat.SolveCallsTotal()
	cold, err := runPass(e, dir, c, coldTr)
	if err != nil {
		return nil, err
	}
	queries, calls = attack.OracleQueriesTotal()-queries, sat.SolveCallsTotal()-calls
	if coldTr != nil {
		e.rec.end(coldTr.root)
	}
	if int(cold.stats.Misses) != cells || int(cold.stats.Puts) != cells || cold.stats.Hits != 0 {
		out.fail("cold pass: %v, want %d misses and stores", cold.stats, cells)
	}
	checkColdCells(out, cold.cells)

	// Warm passes until the budget is spent; each must reproduce the
	// cold tables byte for byte from hits alone. In a traced run every
	// other pass is traced, so the overhead compares like with like.
	var warm []*tablePass
	var tracedMS, plainMS []float64
	for i := 0; time.Since(begin) < e.seconds || len(warm) < 2; i++ {
		var tr *opTrace
		if e.trace && i%2 == 0 {
			tr = &opTrace{rec: e.rec, op: e.rec.newOp()}
			tr.root = e.rec.begin(tr.op, 0, "table.warm")
		}
		out.attempted++
		p, err := runPass(e, dir, nil, tr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			e.rec.end(tr.root)
			tracedMS = append(tracedMS, ms(p.wall))
		} else {
			plainMS = append(plainMS, ms(p.wall))
		}
		if int(p.stats.Hits) != cells || p.stats.Misses != 0 {
			out.fail("warm pass %d: %v, want %d hits and no misses", i, p.stats, cells)
		} else if k := firstDiff(p.tables, cold.tables); k >= 0 {
			out.fail("warm pass %d: table %d differs from the cold one", i, k)
		}
		warm = append(warm, p)
	}

	pick := func(f func(*tablePass) float64) []float64 {
		r := make([]float64, len(warm))
		for i, p := range warm {
			r[i] = f(p)
		}
		return r
	}
	if !e.trace {
		// The operation is one warm pass, the bulk the cold pass.
		out.add("setup_s", "s", setupCPU)
		out.add("op_cpu_ms", "ms", quantile(pick(func(p *tablePass) float64 { return ms(p.cpu) }), 0.5))
		out.add("bulk_cpu_s", "s", cold.cpu.Seconds())
		// Memory, after the timed part: the peak resident set of a fresh
		// process that regenerates the table set from the warm cache, as
		// a rilbench run would; the median of three such processes.
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		var rss []float64
		for i := 0; i < 3; i++ {
			out.attempted++
			mb, err := childRSS(exe, "--warm-probe", dir, "--seed", strconv.FormatInt(e.seed, 10))
			if err != nil {
				out.fail("%v", err)
				continue
			}
			rss = append(rss, mb)
		}
		out.add("peak_rss_mb", "MB", quantile(rss, 0.5))
		out.detail("setup_wall_s", "s", setupWall)
		out.detail("table_warm_ms.p50", "ms", quantile(pick(func(p *tablePass) float64 { return ms(p.wall) }), 0.5))
		out.detail("table_cold_s", "s", cold.wall.Seconds())
		fmt.Printf("tables: %d of %d cells, %d warm passes\n", tableCount, len(tableBlocks), len(warm))
		return out, nil
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	plain := quantile(plainMS, 0.5)
	out.detail("sweep.cell_s.sum", "s", cold.cellS)
	out.detail("sweep.parallel_efficiency", "ratio", cold.cellS/(tableJobs*cold.wall.Seconds()))
	out.detail("cache.misses", "count", float64(cold.stats.Misses))
	out.detail("cache.stores", "count", float64(cold.stats.Puts))
	out.detail("cache.hits", "count", quantile(pick(func(p *tablePass) float64 { return float64(p.stats.Hits) }), 0.5))
	out.detail("cache.open_ms.p50", "ms", quantile(pick(func(p *tablePass) float64 { return ms(p.open) }), 0.5))
	out.detail("cache.hit_us.p50", "us", quantile(pick(func(p *tablePass) float64 { return us(p.render-p.synth) / float64(cells) }), 0.5))
	out.detail("cache.gc_ms.p50", "ms", quantile(pick(func(p *tablePass) float64 { return ms(p.gc) }), 0.5))
	out.detail("circuit.synthesize_ms", "ms", quantile(pick(func(p *tablePass) float64 { return ms(p.synth) }), 0.5))
	out.detail("cache.disk_kb", "KB", float64(disk)/1024)
	spans := e.rec.snapshot()
	worst, broken := closure(spans, "table.warm")
	for _, b := range broken {
		out.fail("closure: %s", b)
	}
	addStages(out, spans, "table.warm", stageSpans{
		load:   []string{"cache.open", "circuit.synthesize"},
		work:   []string{"table.render"},
		finish: []string{"cache.gc"},
	})
	out.add("attack.oracle_queries", "count", float64(queries))
	out.add("sat.solve_calls", "count", float64(calls))
	out.add("trace.overhead_pct", "%", 100*(quantile(tracedMS, 0.5)-plain)/plain)
	out.add("trace.unattributed_pct.max", "%", 100*worst)
	return out, nil
}
