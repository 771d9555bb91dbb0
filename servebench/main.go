// Command servebench measures statements served by an in-process
// admsqld (server.Server with admsqld's default flags) over loopback,
// on one of three seeded traffic mixes.
//
//	servebench --workload point-read --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it prints the end-to-end metrics: set-up time, open-
// loop latency, closed-loop goodput, drift with history, memory and
// space. With --trace 1 it prints per-layer metrics from a run that
// replays part of the same stream in-process with a span around every
// layer call. The last line of standard output is one JSON object;
// a human-readable report goes to standard error. See NOTES.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/adm-project/adm/internal/storage"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string // print order for the table
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "point-read", "point-read, point-write or analytic")
	seed := flag.Int64("seed", 1, "seed for data and statements")
	seconds := flag.Int("seconds", 36, "nominal run length; fixes the statement counts")
	traced := flag.Int("trace", 0, "1: per-layer metrics from a traced run")
	spanDir := flag.String("span-dir", "", "directory to write the traced run's spans to (CSV)")
	flag.Parse()

	w, err := lookup(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	var res *result
	if err == nil {
		if *traced == 1 {
			res, err = runTraced(w, *seed, *seconds, *spanDir)
		} else {
			res, err = runE2E(w, *seed, *seconds)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	for _, n := range res.order {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// trial is one fresh store serving the whole stream.
type trial struct {
	setupS, heapMB, spaceAmp, lag float64
	attempted, failed, wrong      int
	good                          [2]int     // closed loop, per connection: statements within the limit
	busyS                         [2]float64 // closed loop, per connection: seconds until its last reply
	open, closed                  []float64  // latencies, ms, in stream order
}

// goodput is Σ over connections of good statements ÷ that connection's
// busy time. Each connection sends the same number of statements but
// draws its own mix, so one finishes first; dividing the total by the
// phase's wall time would count the other's lone tail, whose length
// varies with the draw, as idle time of both.
func goodput(good [2]int, busyS [2]float64) float64 {
	return float64(good[0])/busyS[0] + float64(good[1])/busyS[1]
}

func runE2E(w *spec, seed int64, seconds int) (*result, error) {
	warm, open, closed := w.phases(seconds)
	d := w.gen(seed, warm+open+closed)
	fmt.Fprintf(os.Stderr, "servebench: %s seed=%d: %d trials of %d warm-up + %d open-loop (%.0f/s) + %d closed-loop statements, latency limit %v\n",
		w.name, seed, w.trials, warm, open, w.rate, closed, w.limit)
	baseMB := liveHeapMB() // the generated stream and oracle
	res := &result{Correct: true}
	ts := make([]trial, w.trials)
	opens, closeds := make([][]float64, w.trials), make([][]float64, w.trials)
	var good [2]int
	var busyS [2]float64
	for i := range ts {
		t, err := runTrial(w, d, warm, open, baseMB)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "servebench: trial %d: set-up %.2fs, goodput %.0f/s, generator lag p99 %.3fms, %d of %d failed\n",
			i+1, t.setupS, goodput(t.good, t.busyS), t.lag, t.failed, t.attempted)
		if t.lag > ms(w.limit) {
			fmt.Fprintf(os.Stderr, "servebench: INVALID trial: generator lag p99 %.3fms exceeds the latency limit\n", t.lag)
			res.Correct = false
		}
		res.Correct = res.Correct && t.wrong == 0
		res.Attempted += t.attempted
		res.Failed += t.failed
		ts[i], opens[i], closeds[i] = t, t.open, t.closed
		for c := range good {
			good[c] += t.good[c]
			busyS[c] += t.busyS[c]
		}
	}
	kinds := make([]kind, len(d.stream))
	for i := range kinds {
		kinds[i] = d.stream[i].kind
	}
	openKinds := kinds[warm : warm+open]
	openByKind := byKindOf(opens, openKinds)
	fmt.Fprintf(os.Stderr, "servebench: latency by statement kind over all trials (failed or wrong statements count as %v); failed %d of %d\n",
		serverConfig().StatementTimeout, res.Failed, res.Attempted)
	fmt.Fprintf(os.Stderr, "  open loop (%.0f/s), from due time:\n", w.rate)
	for k, xs := range openByKind {
		describeTail(kindNames[k], xs)
	}
	fmt.Fprintf(os.Stderr, "  closed loop, round trip:\n")
	for k, xs := range byKindOf(closeds, kinds[warm+open:]) {
		describeTail(kindNames[k], xs)
	}
	mid := func(f func(t trial) float64) float64 {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = f(t)
		}
		return median(xs)
	}
	res.set("setup_s", mid(func(t trial) float64 { return t.setupS }), "s")
	res.set("goodput_sps", goodput(good, busyS), "stmt/s")
	res.set("mix_p50_ms", mixPercentile(openByKind, 50), "ms")
	res.set("p50_drift", drift(opens, openKinds), "ratio")
	res.set("heap_mb", mid(func(t trial) float64 { return t.heapMB }), "MB")
	res.set("space_amp", mid(func(t trial) float64 { return t.spaceAmp }), "ratio")
	return res, nil
}

// runTrial builds a fresh store, serves the warm-up, open-loop and
// closed-loop phases, checks the final state over the socket and
// after recovery, and measures the trial's metrics.
func runTrial(w *spec, d *dataset, warm, open int, baseMB float64) (t trial, err error) {
	in, err := setup(d)
	if err != nil {
		return t, fmt.Errorf("set-up: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			err = errors.Join(err, in.close())
		}
	}()
	r := newRun(d, in)
	warmS, _, err := r.phase(0, warm, 0)
	if err != nil {
		return t, err
	}
	openS, _, err := r.phase(warm, warm+open, w.rate)
	if err != nil {
		return t, err
	}
	closedS, busy, err := r.phase(warm+open, len(d.stream), 0)
	if err != nil {
		return t, err
	}
	live, err := r.finalCheck(in.socketQuery)
	if err != nil {
		return t, fmt.Errorf("final check: %w", err)
	}

	t.setupS = in.setupS
	t.attempted, t.failed, t.wrong = tally(warmS, openS, closedS)
	t.attempted += 2 * len(d.final(r.owned)) // final and post-recovery reads
	t.closed = latencies(closedS)
	for i, l := range t.closed {
		if !closedS[i].fail && !closedS[i].wrong && l <= ms(w.limit) {
			t.good[i%2]++ // statement i of the phase ran on connection i%2
		}
	}
	for c := range busy {
		t.busyS[c] = busy[c].Seconds()
	}
	t.open, t.lag = latencies(openS), genLagP99(openS)
	t.heapMB = liveHeapMB() - baseMB
	t.spaceAmp = float64(in.heapPages(d.tables)*storage.PageSize) / float64(live)

	stopped = true
	if err := in.close(); err != nil {
		return t, err
	}
	if _, err := r.recoverCheck(); err != nil {
		return t, fmt.Errorf("durability: %w", err)
	}
	return t, nil
}

// liveHeapMB is the Go heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
