package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the span that caused this one, 0 for
// the operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. Its methods are
// safe for concurrent use. The benchmark records spans only around
// its own calls into the repo's packages; the program itself carries
// no tracing.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp returns a fresh operation ID.
func (r *recorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// begin opens a span now and returns its ID.
func (r *recorder) begin(op, parent int, name string) int {
	return r.handoff(0, op, parent, name)
}

// end closes span id now.
func (r *recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// handoff ends span prev, unless it is 0, and begins a new span at the
// same instant, so the two leave no gap between them.
func (r *recorder) handoff(prev, op, parent int, name string) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev != 0 {
		r.spans[prev-1].End = now
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(r.spans)
}

// rename relabels span id once its role is known.
func (r *recorder) rename(id int, name string) {
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as
// the server-side timestamps of a daemon job.
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return len(r.spans)
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover. Children are clipped to their parent
// and merged where they overlap, so no interval is subtracted twice.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		lo, hi := int64(0), int64(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo + 1
				lo, hi = a, b-1
				continue
			}
			hi = max(hi, b-1)
		}
		covered += hi - lo + 1
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// closureTolerance is the share of an operation's wall time that may
// go unattributed: the root span's own self time, which is time spent
// between the layers the benchmark names.
const closureTolerance = 0.02

// closure checks, for every operation rooted in a span named root,
// that the self times of the named layers below the root add up to
// the root's wall time within closureTolerance, and that no span has
// negative self time. It returns the worst unattributed share seen
// and a description of each operation that broke the rule.
func closure(spans []span, root string) (worst float64, broken []string) {
	self := selfTimes(spans)
	type acc struct {
		wall, attributed time.Duration
		negative         string
	}
	ops := map[int]*acc{}
	roots := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			ops[s.Op] = &acc{wall: s.dur()}
			roots[s.ID] = true
		}
	}
	for _, s := range spans {
		a := ops[s.Op]
		if a == nil {
			continue
		}
		if self[s.ID] < 0 {
			a.negative = s.Name
		}
		if !roots[s.ID] {
			a.attributed += self[s.ID]
		}
	}
	ids := make([]int, 0, len(ops))
	for op := range ops {
		ids = append(ids, op)
	}
	sort.Ints(ids)
	for _, op := range ids {
		a := ops[op]
		if a.wall <= 0 {
			broken = append(broken, fmt.Sprintf("op %d: %s span has no duration", op, root))
			continue
		}
		share := float64(a.wall-a.attributed) / float64(a.wall)
		if share < 0 {
			share = -share
		}
		worst = max(worst, share)
		switch {
		case a.negative != "":
			broken = append(broken, fmt.Sprintf("op %d: span %s has negative self time", op, a.negative))
		case share > closureTolerance:
			broken = append(broken, fmt.Sprintf("op %d: layers cover %v of %v wall time", op, a.attributed, a.wall))
		}
	}
	return worst, broken
}

// layerTimes collects, per span name, the durations (or self times
// when self is set) of every span with that name.
func layerTimes(spans []span, self bool) map[string][]float64 {
	st := map[string][]float64{}
	var selfT map[int]time.Duration
	if self {
		selfT = selfTimes(spans)
	}
	for _, s := range spans {
		d := s.dur()
		if self {
			d = selfT[s.ID]
		}
		st[s.Name] = append(st[s.Name], float64(d))
	}
	return st
}

// stageSpans names, for one workload, the spans that make up each of
// the three stages every operation passes through: load (getting the
// operation's input ready), work (its main computation) and finish
// (what follows until the result is delivered).
type stageSpans struct {
	load, work, finish []string
}

// addStages reports the stage metrics of the operations rooted in
// spans named root: each stage's summed span durations per operation,
// and how much the finish stage grew from the first quarter of the
// operations to the last, in the order they started.
func addStages(out *outcome, spans []span, root string, st stageSpans) {
	type opStages struct {
		start              int64
		load, work, finish float64
	}
	ops := map[int]*opStages{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			ops[s.Op] = &opStages{start: s.Start}
		}
	}
	for _, s := range spans {
		o := ops[s.Op]
		if o == nil {
			continue
		}
		d := ms(s.dur())
		switch {
		case slices.Contains(st.load, s.Name):
			o.load += d
		case slices.Contains(st.work, s.Name):
			o.work += d
		case slices.Contains(st.finish, s.Name):
			o.finish += d
		}
	}
	ordered := make([]*opStages, 0, len(ops))
	for _, o := range ops {
		ordered = append(ordered, o)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].start < ordered[b].start })
	var load, work, finish []float64
	for _, o := range ordered {
		load = append(load, o.load)
		work = append(work, o.work)
		finish = append(finish, o.finish)
	}
	quarter := max(1, len(finish)/4)
	out.add("stage.load_ms.p50", "ms", quantile(load, 0.5))
	out.add("stage.work_ms.p50", "ms", quantile(work, 0.5))
	out.add("stage.work_ms.p99", "ms", quantile(work, 0.99))
	out.add("stage.finish_ms.p50", "ms", quantile(finish, 0.5))
	out.add("stage.finish_growth", "ratio",
		quantile(finish[len(finish)-quarter:], 0.5)/quantile(finish[:quarter], 0.5))
}
