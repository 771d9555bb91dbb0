package main

import (
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p99 of 1..1000 leaves exactly ten samples (991..1000) at or
	// beyond it, counting itself.
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},  // overlaps a by 10
		{name: "c", parent: 0, start: 50, end: 55},  // inside b
		{name: "d", parent: 0, start: 90, end: 120}, // runs past the root
		{name: "b1", parent: 2, start: 35, end: 45},
		{name: "other", parent: -1, start: 0, end: 7},
	}
	// Root covered by a∪b∪c∪d = [10,60) + [90,100) = 60.
	want := []int64{40, 30, 20, 5, 30, 10, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestParsePruned(t *testing.T) {
	for _, tc := range []struct {
		plan          string
		pruned, total int
	}{
		{"Parallel(workers=2) SeqScan(f est=1) | filter(f): pruned=89/90 kernel[id >= 10]", 89, 90},
		{"HashJoin | filter(s): pruned=3/12 kernel[a] | filter(c): pruned=0/4 kernel[b]", 3, 16},
		{"IndexScan(items.id = 5)", 0, 0},
		{"filter(f): boxed[x = 1]", 0, 0},
	} {
		p, n := parsePruned(tc.plan)
		if p != tc.pruned || n != tc.total {
			t.Errorf("parsePruned(%q) = %d/%d, want %d/%d", tc.plan, p, n, tc.pruned, tc.total)
		}
	}
}

func TestStreamIsSeedDetermined(t *testing.T) {
	for _, w := range workloads {
		warm, open, closed := w.phases(2)
		n := warm + open + closed
		a, b, c := w.gen(7, n), w.gen(7, n), w.gen(8, n)
		if len(a.stream) != n || len(a.stream) != len(b.stream) {
			t.Fatalf("%s: stream lengths %d, %d, want %d", w.name, len(a.stream), len(b.stream), n)
		}
		same := true
		for i := range a.stream {
			if a.stream[i] != b.stream[i] {
				t.Fatalf("%s: statement %d differs for one seed: %q vs %q", w.name, i, a.stream[i].sql, b.stream[i].sql)
			}
			same = same && a.stream[i].sql == c.stream[i].sql
		}
		for i := range a.init {
			if a.init[i] != b.init[i] {
				t.Fatalf("%s: seed statement %d differs for one seed", w.name, i)
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestPhasesAreEvenAndFixed(t *testing.T) {
	for _, w := range workloads {
		warm, open, closed := w.phases(10)
		if warm%2 != 0 || open%2 != 0 || closed%2 != 0 || open == 0 || closed == 0 {
			t.Errorf("%s: phases %d/%d/%d must be even and non-empty", w.name, warm, open, closed)
		}
		if w2, o2, c2 := w.phases(10); w2 != warm || o2 != open || c2 != closed {
			t.Errorf("%s: phases not fixed by run length", w.name)
		}
	}
}

func TestCheckTracksAcknowledgedWrites(t *testing.T) {
	owned := map[int64]int64{4: 10}
	row := func(k, v int64) []storage.Tuple {
		return []storage.Tuple{{storage.IntValue(k), storage.IntValue(v)}}
	}
	if err := check(&stmt{op: opGet, key: 4}, row(4, 10), 0, owned); err != nil {
		t.Fatalf("seeded value: %v", err)
	}
	if err := check(&stmt{op: opSet, key: 4, val: 11}, nil, 1, owned); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := check(&stmt{op: opGet, key: 4}, row(4, 10), 0, owned); err == nil {
		t.Fatal("stale value accepted after an acknowledged update")
	}
	if err := check(&stmt{op: opSet, key: 6, val: 1}, nil, 0, owned); err == nil || owned[6] != 0 {
		t.Fatal("an update that touched no row was acknowledged")
	}
	rows := []storage.Tuple{{storage.IntValue(1)}, {storage.IntValue(2)}}
	rev := []storage.Tuple{rows[1], rows[0]}
	if err := check(&stmt{op: opRows, rows: 2, want: fingerprint(rows, false)}, rev, 0, nil); err != nil {
		t.Errorf("unordered result in another order: %v", err)
	}
	if err := check(&stmt{op: opOrdered, rows: 2, want: fingerprint(rows, true)}, rev, 0, nil); err == nil {
		t.Error("ordered result in the wrong order accepted")
	}
}

func TestMixPercentileWeighsKinds(t *testing.T) {
	var byKind [numKinds][]float64
	byKind[kRead] = []float64{1, 1, 1, 1, 1, 1} // 6 fast
	byKind[kUpdate] = []float64{10, 10, 10, 10} // 4 slow
	// The plain median of the ten sits at the cluster edge. The mix
	// weighs each kind by its nominal share (0.4 each), not by its
	// sample count: (0.4×1 + 0.4×10) / 0.8.
	if got := mixPercentile(byKind, 50); got != 5.5 {
		t.Errorf("mixPercentile = %g, want 5.5", got)
	}
	var none [numKinds][]float64
	if got := mixPercentile(none, 50); got != 0 {
		t.Errorf("mixPercentile(no samples) = %g, want 0", got)
	}
	only := ofClass(byKind, clsWrite)
	if len(only[kRead]) != 0 || len(only[kUpdate]) != 4 {
		t.Errorf("ofClass(write) kept %d reads, %d updates", len(only[kRead]), len(only[kUpdate]))
	}
}

func TestDriftNormalisesByKindAndPoolsTrials(t *testing.T) {
	// Twenty statements alternating a fast and a slow kind; the last
	// third (six statements) of each trial is twice as slow.
	kinds := make([]kind, 20)
	trial := make([]float64, 20)
	for i := range trial {
		kinds[i], trial[i] = kRead, 1
		if i%2 == 1 {
			kinds[i], trial[i] = kUpdate, 10
		}
		if i >= 14 {
			trial[i] *= 2
		}
	}
	if got := drift([][]float64{trial, trial}, kinds); got != 2 {
		t.Errorf("drift = %g, want 2", got)
	}
	flat := make([]float64, 20)
	for i := range flat {
		flat[i] = float64(1 + 9*(i%2))
	}
	if got := drift([][]float64{flat}, kinds); got != 1 {
		t.Errorf("drift of a flat run = %g, want 1", got)
	}
}

func TestGoodputSumsPerConnectionRates(t *testing.T) {
	// Connection 1 finished its share later; its rate is its own
	// count over its own busy time, not over the other's.
	if got := goodput([2]int{100, 100}, [2]float64{1, 2}); got != 150 {
		t.Errorf("goodput = %g, want 150", got)
	}
}
