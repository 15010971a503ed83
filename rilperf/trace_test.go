package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Op: 1, Name: "a.x", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestClosureFlagsUnattributedTime(t *testing.T) {
	tiled := []span{
		{ID: 1, Op: 1, Name: "job", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 0, End: 600},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 600, End: 995},
	}
	if worst, broken := closure(tiled, "job"); len(broken) != 0 || worst != 0.005 {
		t.Fatalf("tiled op: worst %v, broken %v", worst, broken)
	}
	gap := append([]span(nil), tiled...)
	gap[2].End = 900 // 10% of the job belongs to no layer
	if _, broken := closure(gap, "job"); len(broken) != 1 {
		t.Fatalf("gap of 10%% not flagged: %v", broken)
	}
	neg := append([]span(nil), tiled...)
	neg[2].Start, neg[2].End = 700, 650
	if _, broken := closure(neg, "job"); len(broken) != 1 {
		t.Fatalf("negative span not flagged: %v", broken)
	}
}
