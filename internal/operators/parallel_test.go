package operators

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

func intTuple(vs ...int64) storage.Tuple {
	t := make(storage.Tuple, len(vs))
	for i, v := range vs {
		t[i] = storage.IntValue(v)
	}
	return t
}

// multiset renders tuples as a sorted string multiset for comparison
// across nondeterministic orderings.
func multiset(ts []storage.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		s := ""
		for _, v := range t {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, got, want []storage.Tuple) {
	t.Helper()
	g, w := multiset(got), multiset(want)
	if len(g) != len(w) {
		t.Fatalf("row count: got %d want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %q want %q", i, g[i], w[i])
		}
	}
}

func TestSliceMorselsCoverEverythingOnce(t *testing.T) {
	var in []storage.Tuple
	for i := 0; i < 1000; i++ {
		in = append(in, intTuple(int64(i)))
	}
	src := NewSliceMorsels(in, 7)
	got, err := DrainParallel(src, ParallelConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, in)
}

func TestHeapMorselsMatchSerialScan(t *testing.T) {
	store := storage.NewStore()
	bm := storage.NewBufferManager(store, 8, storage.NewLRU())
	hf := storage.NewHeapFile("t", store, bm)
	var want []storage.Tuple
	for i := 0; i < 2500; i++ {
		tp := intTuple(int64(i), int64(i%13))
		if _, err := hf.Insert(tp); err != nil {
			t.Fatal(err)
		}
		want = append(want, tp)
	}
	got, err := DrainParallel(NewHeapMorsels(hf), ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)
}

func TestFilterMorsels(t *testing.T) {
	var in, want []storage.Tuple
	for i := 0; i < 500; i++ {
		tp := intTuple(int64(i))
		in = append(in, tp)
		if i%3 == 0 {
			want = append(want, tp)
		}
	}
	src := NewFilterMorsels(NewSliceMorsels(in, 16), func(t storage.Tuple) bool {
		return t[0].Int%3 == 0
	})
	got, err := DrainParallel(src, ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)
}

func TestIterMorselsMatchesDrain(t *testing.T) {
	var in []storage.Tuple
	for i := 0; i < 333; i++ {
		in = append(in, intTuple(int64(i)))
	}
	src := NewIterMorsels(NewMemScan(in), 10)
	got, err := DrainParallel(src, ParallelConfig{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, in)
}

func TestParallelJoinMatchesSerial(t *testing.T) {
	var build, probe []storage.Tuple
	for i := 0; i < 800; i++ {
		build = append(build, intTuple(int64(i%50), int64(i)))
	}
	for i := 0; i < 1200; i++ {
		probe = append(probe, intTuple(int64(i%75), int64(-i)))
	}
	// some nulls on both sides: they never join
	build = append(build, storage.Tuple{storage.NullValue(), storage.IntValue(1)})
	probe = append(probe, storage.Tuple{storage.NullValue(), storage.IntValue(2)})

	serial := NewHashJoin(NewMemScan(build), NewMemScan(probe), 0, 0)
	want, err := Drain(serial)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		cfg := ParallelConfig{Workers: workers, MorselSize: 64}
		bt, _, err := ParallelBuild(NewSliceMorsels(build, 64), 0, cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if bt.Rows() != len(build) {
			t.Fatalf("workers=%d: build rows %d want %d", workers, bt.Rows(), len(build))
		}
		got, err := bt.ParallelProbe(NewSliceMorsels(probe, 64), 0, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameMultiset(t, got, want)
	}
}

func TestParallelBuildAbortReturnsExactPrefix(t *testing.T) {
	var build []storage.Tuple
	for i := 0; i < 1000; i++ {
		build = append(build, intTuple(int64(i)))
	}
	src := NewSliceMorsels(build, 32)
	cfg := ParallelConfig{Workers: 4, MorselSize: 32}
	bt, ab, err := ParallelBuild(src, 0, cfg, func(rows int) bool {
		return rows <= 200 // abort once more than 200 rows observed
	})
	if !errors.Is(err, ErrBuildAborted) {
		t.Fatalf("err = %v, want ErrBuildAborted", err)
	}
	if bt != nil {
		t.Fatal("aborted build returned a table")
	}
	prefix := ab.Prefix
	if len(prefix) <= 200 {
		t.Fatalf("prefix %d rows, want > 200 (abort fires after the morsel that crossed)", len(prefix))
	}
	// The prefix plus whatever the source still holds must be exactly
	// the input multiset: nothing lost, nothing duplicated.
	rest, err := DrainParallel(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, append(append([]storage.Tuple{}, prefix...), rest...), build)
}

// TestParallelBuildSafePointCadence: with SafePointEvery set, the
// safe point fires every SafePointEvery tuples of a worker's progress
// even inside one large batch; the aborted build reports the count at
// the failing safe point, absorbs no more than each worker's stride
// past it, and replays the unprocessed batch tails with the prefix.
func TestParallelBuildSafePointCadence(t *testing.T) {
	var build []storage.Tuple
	for i := 0; i < 5000; i++ {
		build = append(build, intTuple(int64(i%50)))
	}
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 64, 1024} {
			src := NewSliceBatches(build, batch)
			cfg := ParallelConfig{Workers: workers, SafePointEvery: 32}
			var checks atomic.Int64
			_, ab, err := ParallelBuildBatches(src, 0, cfg, func(rows int) bool {
				checks.Add(1)
				return rows <= 30
			})
			if !errors.Is(err, ErrBuildAborted) {
				t.Fatalf("w=%d batch=%d: err = %v, want ErrBuildAborted", workers, batch, err)
			}
			if ab.TriggerRow != 32 {
				t.Fatalf("w=%d batch=%d: trigger row %d, want 32", workers, batch, ab.TriggerRow)
			}
			if ab.Hashed > 32*workers+32 || ab.Hashed < 32 {
				t.Fatalf("w=%d batch=%d: hashed %d rows past the cadence", workers, batch, ab.Hashed)
			}
			if checks.Load() > int64(workers) {
				t.Fatalf("w=%d batch=%d: %d safe points, want at most one per worker", workers, batch, checks.Load())
			}
			rest, err := DrainParallelBatches(src, ParallelConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, append(append([]storage.Tuple{}, ab.Prefix...), rest...), build)
		}
	}
}

func TestChainMorselsReplaysPrefixThenRest(t *testing.T) {
	var a, b, want []storage.Tuple
	for i := 0; i < 100; i++ {
		a = append(a, intTuple(int64(i)))
		b = append(b, intTuple(int64(1000+i)))
	}
	want = append(append(want, a...), b...)
	src := NewChainMorsels(NewSliceMorsels(a, 9), NewSliceMorsels(b, 9))
	got, err := DrainParallel(src, ParallelConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, got, want)
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	var in []storage.Tuple
	for i := 0; i < 2000; i++ {
		in = append(in, intTuple(int64(i%17), int64(i), int64(i%5)))
	}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggMin, Col: 1},
		{Kind: AggMax, Col: 1}, {Kind: AggAvg, Col: 2}}
	for _, groupCol := range []int{0, -1} {
		want, err := Drain(NewHashAggregate(NewMemScan(in), groupCol, aggs))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := ParallelHashAggregate(NewSliceMorsels(in, 128), groupCol, aggs,
				ParallelConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, got, want)
		}
	}
}

func TestParallelAggregateGlobalOverEmptyInput(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCount}}
	got, err := ParallelHashAggregate(NewSliceMorsels(nil, 0), -1, aggs, ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int != 0 {
		t.Fatalf("global COUNT over empty input = %v, want [0]", got)
	}
}

func TestDrainParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	src := &erringSource{after: 5, err: boom}
	_, err := DrainParallel(src, ParallelConfig{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

type erringSource struct {
	n     atomic.Int64
	after int64
	err   error
}

func (s *erringSource) NextMorsel() ([]storage.Tuple, error) {
	n := s.n.Add(1)
	if n > s.after {
		return nil, s.err
	}
	return []storage.Tuple{intTuple(n)}, nil
}

func TestOnWorkerRowCountsAddUp(t *testing.T) {
	var in []storage.Tuple
	for i := 0; i < 640; i++ {
		in = append(in, intTuple(int64(i)))
	}
	var total atomic.Int64
	cfg := ParallelConfig{Workers: 4, MorselSize: 10,
		OnWorker: func(w int, phase string, rows int) {
			if phase != "scan" {
				panic(fmt.Sprintf("phase %q", phase))
			}
			total.Add(int64(rows))
		}}
	if _, err := DrainParallel(NewSliceMorsels(in, 10), cfg); err != nil {
		t.Fatal(err)
	}
	if total.Load() != int64(len(in)) {
		t.Fatalf("worker row counts sum to %d, want %d", total.Load(), len(in))
	}
}
