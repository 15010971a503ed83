package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/baselines"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/serve"
)

// daemon-flood: an in-process rild core behind a loopback listener,
// driven by a closed loop of floodClients clients that each send one
// attack job and wait for its done frame before sending the next.
const (
	floodClients = 2
	floodWorkers = 2
	floodKeyBits = 5
)

// c17Bench is ISCAS-85 c17, the base of every flood job.
const c17Bench = `INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G16, G19)
G23 = NAND(G10, G16)
`

// floodTarget is one job's input: a distinct XOR lock of c17.
type floodTarget struct {
	bench, key string
}

// floodPoolPerSecond sizes the pool of distinct jobs built at set-up:
// enough for this many jobs per second of the run, over twice what the
// daemon sustains on a 2-core host. A run that exhausts the pool ends
// early and says so.
const floodPoolPerSecond = 250

// The bulk figures are taken over a fixed window of done jobs: the CPU
// time the daemon needs to complete jobs bulkFrom+1 to bulkTo, and its
// peak memory when job bulkTo is done. Fixed counts, rather than
// whatever the budget allowed, keep the manifest the same size over the
// window in every run. The window starts late because the CPU time of
// the first thousand jobs varied by a third between runs. The flood goes
// on past the budget until bulkTo jobs are done, for at most floodCap.
const (
	bulkFrom = 1000
	bulkTo   = 2000
	floodCap = 120 * time.Second
)

// makeTargets builds n distinct XOR locks of c17, in an order fixed by
// the workload seed. Locks whose netlist repeats an earlier one are
// skipped, so every job a run sends is unique.
func makeTargets(seed int64, n int) ([]floodTarget, error) {
	c17, err := netlist.ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	targets := make([]floodTarget, 0, n)
	for i := 0; len(targets) < n; i++ {
		if i >= 4*n {
			return nil, fmt.Errorf("only %d distinct c17 locks in %d tries", len(targets), i)
		}
		l, err := baselines.XORLock(c17, floodKeyBits, deriveSeed(seed, i))
		if err != nil {
			return nil, err
		}
		var bench, key strings.Builder
		if err := l.Netlist.WriteBench(&bench); err != nil {
			return nil, err
		}
		if seen[bench.String()] {
			continue
		}
		seen[bench.String()] = true
		for j, pos := range l.KeyPos {
			fmt.Fprintf(&key, "%s=%d\n", l.Netlist.Gates[l.Netlist.Inputs[pos]].Name, b2i(l.Key[j]))
		}
		targets = append(targets, floodTarget{bench: bench.String(), key: key.String()})
	}
	return targets, nil
}

// daemon is one running server with its HTTP front.
type daemon struct {
	srv      *serve.Server
	http     *http.Server
	base     string
	state    string
	serving  sync.WaitGroup
	serveErr error // Serve's return, once serving is done
}

func startDaemon(state string) (*daemon, error) {
	srv, err := serve.New(serve.Options{StateDir: state, Workers: floodWorkers})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), state: state}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		d.serveErr = d.http.Serve(ln)
	}()
	return d, nil
}

// stop drains the workers and closes the listener, waiting for both.
func (d *daemon) stop() error {
	d.srv.Drain(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	d.serving.Wait()
	if !errors.Is(d.serveErr, http.ErrServerClosed) {
		err = errors.Join(err, d.serveErr)
	}
	return err
}

// jobRecord is one job as the client saw it plus the server's view.
type jobRecord struct {
	index                int
	target               floodTarget
	id                   string
	send, posted, doneAt time.Time
	view                 serve.JobView
	result               serve.AttackResult
	recordCost           time.Duration // spent recording its spans; traced jobs only
}

func (j *jobRecord) latency() time.Duration { return j.doneAt.Sub(j.send) }

// floodClient owns one HTTP connection to the daemon. It submits jobs
// and reads /metrics through serve.Client and follows each job's event
// stream itself, to see the done frame the moment it is sent.
type floodClient struct {
	api serve.Client
	tr  *http.Transport
}

func newFloodClient(base string) *floodClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &floodClient{api: serve.Client{Base: base, HTTP: &http.Client{Transport: tr, Timeout: time.Minute}}, tr: tr}
}

// do sends one job and waits for its done frame on the event stream.
func (c *floodClient) do(j *jobRecord) error {
	spec := serve.JobSpec{Type: serve.TypeAttack, NoCache: true,
		Attack: &serve.AttackSpec{Bench: j.target.bench, Key: j.target.key}}
	j.send = time.Now()
	id, err := c.api.Submit(context.Background(), &spec)
	if err != nil {
		return err
	}
	j.id = id
	j.posted = time.Now()

	resp, err := c.api.HTTP.Get(c.api.Base + "/jobs/" + j.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", j.id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("events %s: stream ended before done: %w", j.id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			j.doneAt = time.Now()
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &j.view); err != nil {
				return err
			}
			// Drain the rest so the connection is reused.
			_, err := io.Copy(io.Discard, br)
			if err != nil {
				return err
			}
			if len(j.view.Result) > 0 {
				return json.Unmarshal(j.view.Result, &j.result)
			}
			return nil
		}
	}
}

// metricsOf reads the named counters from /metrics.
func (c *floodClient) metricsOf(names ...string) (map[string]float64, error) {
	text, err := c.api.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	got := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: %s: %w", f[0], err)
			}
			got[f[0]] = v
		}
	}
	for _, n := range names {
		if _, ok := got[n]; !ok {
			return nil, fmt.Errorf("metrics: %s missing", n)
		}
	}
	return got, nil
}

const (
	mAccepted = "rild_jobs_accepted_total"
	mDone     = "rild_jobs_done_total"
	mQueries  = "rild_oracle_queries_total"
)

func runDaemon(e *env) (*outcome, error) {
	// Set-up builds the job pool and starts a daemon on a fresh state
	// directory; each repeat but the last is stopped again.
	var prev *daemon
	var targets []floodTarget
	d, setupWall, setupCPU, err := timeSetup(5, func(i int) (*daemon, error) {
		if prev != nil {
			if err := prev.stop(); err != nil {
				return nil, err
			}
			prev = nil
		}
		var err error
		if targets, err = makeTargets(e.seed, max(2*bulkTo, floodPoolPerSecond*int(e.seconds/time.Second))); err != nil {
			return nil, err
		}
		prev, err = startDaemon(filepath.Join(e.dir, fmt.Sprintf("state%d", i)))
		return prev, err
	})
	if err != nil {
		if prev != nil {
			err = errors.Join(err, prev.stop())
		}
		return nil, err
	}
	out, err := flood(e, d, targets)
	if err = errors.Join(err, d.stop()); err != nil {
		return nil, err
	}
	if !e.trace {
		out.metrics = append([]metric{{"setup_s", "s", setupCPU}}, out.metrics...)
		out.detail("setup_wall_s", "s", setupWall)
	}
	return out, nil
}

// flood runs the closed loop against d for the run's budget, and on
// until bulkTo jobs are done, then checks every job.
func flood(e *env, d *daemon, targets []floodTarget) (*outcome, error) {
	probe := newFloodClient(d.base)
	defer probe.tr.CloseIdleConnections()
	before, err := probe.metricsOf(mAccepted, mDone, mQueries)
	if err != nil {
		return nil, err
	}
	// Let the disk settle: write back what earlier runs left dirty so
	// it is not flushed during the timed part.
	syscall.Sync()

	var (
		mu      sync.Mutex
		jobs    []*jobRecord
		errs    []error
		counter int
		wg      sync.WaitGroup
		// CPU time at the bulkFrom-th and bulkTo-th done job; peak RSS
		// at the bulkTo-th.
		bulkCPU [2]time.Duration
		bulkRSS float64
		bulkErr error
	)
	calls, cpu0 := sat.SolveCallsTotal(), cpuTime()
	start := time.Now()
	deadline, hardStop := start.Add(e.seconds), start.Add(floodCap)
	more := func() bool { // under mu
		now := time.Now()
		return counter < len(targets) && now.Before(hardStop) && (now.Before(deadline) || len(jobs) < bulkTo)
	}
	for c := 0; c < floodClients; c++ {
		cl := newFloodClient(d.base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.tr.CloseIdleConnections()
			for {
				mu.Lock()
				if !more() {
					mu.Unlock()
					return
				}
				j := &jobRecord{index: counter, target: targets[counter]}
				counter++
				mu.Unlock()
				err := cl.do(j)
				if err == nil && e.trace && j.index%2 == 0 {
					t := time.Now()
					err = recordJob(e.rec, j)
					j.recordCost = time.Since(t)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("job %d: %w", j.index, err))
				} else {
					jobs = append(jobs, j)
					switch len(jobs) {
					case bulkFrom:
						bulkCPU[0] = cpuTime()
					case bulkTo:
						bulkCPU[1] = cpuTime()
						bulkRSS, bulkErr = peakRSSMB()
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	calls = sat.SolveCallsTotal() - calls
	cpu := cpuTime() - cpu0
	after, err := probe.metricsOf(mAccepted, mDone, mQueries)
	if err != nil {
		return nil, err
	}
	stateBytes, err := dirBytes(d.state)
	if err != nil {
		return nil, err
	}
	if bulkErr != nil {
		return nil, bulkErr
	}
	if len(jobs) < bulkTo {
		return nil, fmt.Errorf("%d jobs done in %v; the bulk figures need %d", len(jobs), time.Since(start).Round(time.Second), bulkTo)
	}

	out := &outcome{attempted: counter}
	if counter == len(targets) {
		fmt.Printf("flood: the pool of %d jobs ran out\n", counter)
	}
	for _, err := range errs {
		out.fail("%v", err)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].doneAt.Before(jobs[b].doneAt) })
	checkFlood(out, jobs, before, after)

	if e.trace {
		floodLayers(e, out, jobs, stateBytes, calls)
		return out, nil
	}
	var lat []float64
	end := start
	for _, j := range jobs {
		lat = append(lat, ms(j.latency()))
		if j.doneAt.After(end) {
			end = j.doneAt
		}
	}
	// The operation is one job, the bulk the window of jobs. Jobs
	// overlap, so a job's CPU time is the flood's divided by its jobs.
	out.add("op_cpu_ms", "ms", ms(cpu)/float64(len(jobs)))
	out.add("bulk_cpu_s", "s", (bulkCPU[1] - bulkCPU[0]).Seconds())
	out.add("peak_rss_mb", "MB", bulkRSS)
	out.detail("jobs_per_s", "jobs/s", float64(len(jobs))/end.Sub(start).Seconds())
	out.detail("job_latency_ms.p50", "ms", quantile(lat, 0.5))
	fmt.Printf("flood: %d jobs, state %.1f MB\n", len(jobs), float64(stateBytes)/1e6)
	return out, nil
}

// checkFlood checks that no job was lost, duplicated or answered
// wrongly, and that the daemon's own counters agree with the client.
func checkFlood(out *outcome, jobs []*jobRecord, before, after map[string]float64) {
	ids := map[string]bool{}
	queries := 0
	for _, j := range jobs {
		if ids[j.id] {
			out.fail("job %d: duplicate id %s", j.index, j.id)
		}
		ids[j.id] = true
		queries += j.result.Queries
		if j.view.State != serve.StateDone || j.result.Status != "key-found" {
			out.fail("job %d (%s): state %s, status %q, error %q", j.index, j.id, j.view.State, j.result.Status, j.view.Error)
			continue
		}
		if err := checkC17Key(j.target, j.result.Key); err != nil {
			out.fail("job %d (%s): %v", j.index, j.id, err)
		}
	}
	delta := func(name string) int { return int(after[name] - before[name]) }
	if n := delta(mAccepted); n != out.attempted {
		out.fail("daemon accepted %d jobs, client sent %d", n, out.attempted)
	}
	if n := delta(mDone); n != len(jobs) {
		out.fail("daemon completed %d jobs, client saw %d done", n, len(jobs))
	}
	if n := delta(mQueries); n != queries {
		out.fail("daemon counted %d oracle queries, job results sum to %d", n, queries)
	}
}

// checkC17Key proves a recovered key right by exhaustive simulation:
// the locked circuit under it matches the circuit under the true key
// on every input pattern.
func checkC17Key(t floodTarget, bits string) error {
	locked, err := netlist.ParseBench("check", strings.NewReader(t.bench))
	if err != nil {
		return err
	}
	keyPos := locked.GateIDsByPrefix(keyPrefix)
	want, err := parseKey(t.key, locked, keyPos)
	if err != nil {
		return err
	}
	if len(bits) != len(keyPos) {
		return fmt.Errorf("recovered key %q has %d bits, want %d", bits, len(bits), len(keyPos))
	}
	got := make([]bool, len(bits))
	for i := range bits {
		got[i] = bits[i] == '1'
	}
	a, err := locked.BindInputs(keyPos, got)
	if err != nil {
		return err
	}
	b, err := locked.BindInputs(keyPos, want)
	if err != nil {
		return err
	}
	n := len(a.Inputs)
	if n > 6 {
		return fmt.Errorf("%d inputs: too many to enumerate in one word", n)
	}
	in := make([]uint64, n)
	for p := 0; p < 1<<n; p++ {
		for i := range in {
			if p>>i&1 == 1 {
				in[i] |= 1 << p
			}
		}
	}
	mask := ^uint64(0)
	if n < 6 {
		mask = 1<<(1<<n) - 1
	}
	sa, err := netlist.NewSimulator(a)
	if err != nil {
		return err
	}
	sb, err := netlist.NewSimulator(b)
	if err != nil {
		return err
	}
	oa := append([]uint64(nil), sa.Run(in)...)
	ob := sb.Run(in)
	for i := range oa {
		if (oa[i]^ob[i])&mask != 0 {
			return fmt.Errorf("recovered key %s differs from the true key on output %d", bits, i)
		}
	}
	return nil
}

// recordJob tiles one job, client send to done frame received, with
// spans from the server's JobView timestamps. Client and server share
// one wall clock because the server runs in this process.
func recordJob(rec *recorder, j *jobRecord) error {
	var ts [3]time.Time
	for i, s := range []string{j.view.Submitted, j.view.Started, j.view.Finished} {
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return fmt.Errorf("job %s: timestamp %q: %w", j.id, s, err)
		}
		ts[i] = t
	}
	submitted, started, finished := ts[0], ts[1], ts[2]
	ran := started.Add(time.Duration(j.view.Seconds * float64(time.Second)))
	send, done := j.send.Round(0), j.doneAt.Round(0) // wall clock, as the server's
	op := rec.newOp()
	root := rec.add(op, 0, "serve.job", send, done)
	rec.add(op, root, "serve.accept", send, submitted)
	rec.add(op, root, "serve.queue_wait", submitted, started)
	rec.add(op, root, "serve.run", started, ran)
	rec.add(op, root, "serve.persist", ran, finished)
	rec.add(op, root, "serve.notify", finished, done)
	rec.add(rec.newOp(), 0, "serve.submit", send, j.posted.Round(0))
	return nil
}

// floodLayers reports the per-layer figures of a traced flood. Even
// jobs were traced, odd ones not, so the trace overhead compares
// jobs sent under the same load and manifest size.
func floodLayers(e *env, out *outcome, jobs []*jobRecord, stateBytes, solveCalls int64) {
	spans := e.rec.snapshot()
	worst, broken := closure(spans, "serve.job")
	for _, b := range broken {
		out.fail("closure: %s", b)
	}
	byName := layerTimes(spans, false)
	msOf := func(name string) []float64 {
		r := make([]float64, len(byName[name]))
		for i, x := range byName[name] {
			r[i] = x / 1e6
		}
		return r
	}
	// The persist spans in completion order, for the quarter figures.
	var ps []span
	for _, s := range spans {
		if s.Name == "serve.persist" {
			ps = append(ps, s)
		}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].End < ps[b].End })
	persist := make([]float64, len(ps))
	for i, s := range ps {
		persist[i] = ms(s.dur())
	}
	quarter := max(1, len(persist)/4)
	var tracedCost, plainCost, lat []float64
	queries := 0
	for _, j := range jobs {
		queries += j.result.Queries
		lat = append(lat, ms(j.latency()))
		if j.index%2 == 0 {
			tracedCost = append(tracedCost, ms(j.latency()+j.recordCost))
		} else {
			plainCost = append(plainCost, ms(j.latency()))
		}
	}
	plain := quantile(plainCost, 0.5)
	// The tail is a figure of the traced run rather than an end-to-end
	// metric: over ten seeds its spread reached 0.34 even at under 12 %
	// host steal, beyond any bound a regression gate could use.
	out.detail("job_latency_ms.p99", "ms", quantile(lat, 0.99))
	out.detail("serve.accept_ms", "ms", quantile(msOf("serve.accept"), 0.5))
	out.detail("serve.queue_wait_ms.p50", "ms", quantile(msOf("serve.queue_wait"), 0.5))
	out.detail("serve.queue_wait_ms.p99", "ms", quantile(msOf("serve.queue_wait"), 0.99))
	out.detail("serve.run_ms.p50", "ms", quantile(msOf("serve.run"), 0.5))
	out.detail("serve.run_ms.p99", "ms", quantile(msOf("serve.run"), 0.99))
	out.detail("serve.persist_ms.p50", "ms", quantile(msOf("serve.persist"), 0.5))
	out.detail("serve.persist_ms.p99", "ms", quantile(msOf("serve.persist"), 0.99))
	out.detail("serve.persist_ms.q1.p50", "ms", quantile(persist[:quarter], 0.5))
	out.detail("serve.persist_ms.q4.p50", "ms", quantile(persist[len(persist)-quarter:], 0.5))
	out.detail("serve.notify_ms.p50", "ms", quantile(msOf("serve.notify"), 0.5))
	out.detail("serve.submit_ms.p50", "ms", quantile(msOf("serve.submit"), 0.5))
	out.detail("serve.state_mb", "MB", float64(stateBytes)/1e6)
	addStages(out, spans, "serve.job", stageSpans{
		load:   []string{"serve.accept", "serve.queue_wait"},
		work:   []string{"serve.run"},
		finish: []string{"serve.persist", "serve.notify"},
	})
	out.add("attack.oracle_queries", "count", float64(queries))
	out.add("sat.solve_calls", "count", float64(solveCalls))
	out.add("trace.overhead_pct", "%", 100*(quantile(tracedCost, 0.5)-plain)/plain)
	out.add("trace.unattributed_pct.max", "%", 100*worst)
}
