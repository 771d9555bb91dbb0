package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// runTraced makes one trial whose closed phase is replaced by a
// sequential replay of the same statements, a third of them
// in-process with spans (see run.replay), and reports per-layer
// metrics.
func runTraced(w *spec, seed int64, seconds int, spanDir string) (_ *result, err error) {
	warm, open, closed := w.phases(seconds)
	d := w.gen(seed, warm+open+closed)
	in, err := setup(d)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			err = errors.Join(err, in.close())
		}
	}()
	r := newRun(d, in)
	n := len(d.stream)
	fmt.Fprintf(os.Stderr, "servebench: %s seed=%d traced: %d warm-up + %d open-loop (%.0f/s) + %d replayed statements; %d user heap pages after set-up\n",
		w.name, seed, warm, open, w.rate, closed, in.pages0)
	txn0 := in.db.Txns().Stats()
	warmS, _, err := r.phase(0, warm, 0)
	if err != nil {
		return nil, err
	}
	txnOpen := in.db.Txns().Stats()
	openS, _, err := r.phase(warm, warm+open, w.rate)
	if err != nil {
		return nil, err
	}
	txnOpenEnd := in.db.Txns().Stats()
	rp, err := r.replay(warm+open, n)
	if err != nil {
		return nil, err
	}
	if _, err := r.finalCheck(in.socketQuery); err != nil {
		return nil, fmt.Errorf("final check: %w", err)
	}
	srvStats, txnEnd, dbEnd := in.srv.Stats(), in.db.Txns().Stats(), in.db.Stats()
	events, pages := in.eng.Trace().Len(), in.heapPages(r.d.tables)
	stopped = true
	if err := in.close(); err != nil {
		return nil, err
	}
	recoveryS, err := r.recoverCheck()
	if err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	if spanDir != "" {
		if err := rp.rec.write(filepath.Join(spanDir, "servebench-spans-"+w.name+".csv")); err != nil {
			return nil, err
		}
	}

	attempted, failed, wrong := tally(warmS, openS)
	attempted += rp.attempted + 2*len(r.d.final(r.owned))
	failed += rp.failed
	wrong += rp.wrong
	res := &result{Correct: wrong == 0, Attempted: attempted, Failed: failed}
	l := layerMetrics(r.d, rp)

	// server
	res.set("server.rtt_self_us", mixPercentile(rp.socketUS, 50)-l.stmtUS, "us")
	res.set("server.admission_wait_us", l.spanUS["server.admission"], "us")
	res.set("server.shed", float64(srvStats.Shed), "count")
	res.set("server.deadlines", float64(srvStats.Deadlines), "count")
	res.set("server.conflicts", float64(srvStats.Conflicts), "count")
	res.set("server.ladder_switches", float64(srvStats.Switches), "count")
	var byKind [numKinds][]float64
	for i, l := range latencies(openS) {
		k := d.stream[warm+i].kind
		byKind[k] = append(byKind[k], l)
	}
	for c := class(0); c < numClasses; c++ {
		res.set("server."+classNames[c]+"_p50_ms", mixPercentile(ofClass(byKind, c), 50), "ms")
		if c <= clsWrite {
			var all []float64
			for _, xs := range ofClass(byKind, c) {
				all = append(all, xs...)
			}
			p99 := 0.0
			if tailPercentile(len(all)) >= 99 {
				p99 = percentile(sorted(all), 99)
			}
			res.set("server."+classNames[c]+"_p99_ms", p99, "ms")
		}
	}
	// query
	res.set("query.parse_us", l.spanUS["query.parse"], "us")
	res.set("query.plan_us", l.spanUS["query.plan"], "us")
	for c := class(0); c < numClasses; c++ {
		res.set("query.exec_"+classNames[c]+"_us", l.execUS[c], "us")
	}
	res.set("query.parallel_share", l.parallelShare, "ratio")
	res.set("query.workers_mean", l.workersMean, "count")
	res.set("query.replans", l.replans, "count")
	// operators
	res.set("operators.pages_scanned_per_stmt", l.pagesPerSelect, "pages")
	res.set("operators.prune_ratio", l.pruneRatio, "ratio")
	res.set("operators.pages_per_row_out", l.pagesPerRow, "ratio")
	// storage
	groups, batched := txnOpenEnd.Groups-txnOpen.Groups, txnOpenEnd.Batched-txnOpen.Batched
	fanin := 0.0
	if groups > 0 {
		fanin = float64(batched) / float64(groups)
	}
	bufHits, bufMisses := rp.after.Buffer.Hits-rp.before.Buffer.Hits, rp.after.Buffer.Misses-rp.before.Buffer.Misses
	hitRatio := 0.0
	if bufHits+bufMisses > 0 {
		hitRatio = float64(bufHits) / float64(bufHits+bufMisses)
	}
	res.set("storage.commit_us", l.spanUS["storage.commit"], "us")
	res.set("storage.wal_appends_per_write", l.walAppendsPerWrite, "count")
	res.set("storage.wal_bytes_per_write", l.walBytesPerWrite, "B")
	res.set("storage.pages_per_write", l.pagesPerWrite, "pages")
	res.set("storage.commit_fanin", fanin, "ratio")
	res.set("storage.snapshot_us", l.snapshotUS, "us")
	res.set("storage.buffer_hit_ratio", hitRatio, "ratio")
	res.set("storage.buffer_misses", float64(bufMisses), "count")
	res.set("storage.evictions", float64(rp.after.Buffer.Evictions-rp.before.Buffer.Evictions), "count")
	res.set("storage.wal_bytes", float64(dbEnd.WALBytes), "B")
	res.set("storage.heap_pages_growth", float64(pages-in.pages0), "pages")
	res.set("storage.aborts", float64(txnEnd.Aborts-txn0.Aborts), "count")
	res.set("storage.load_s", in.loadS, "s")
	res.set("storage.checkpoint_s", in.checkpointS, "s")
	res.set("storage.recovery_s", recoveryS, "s")
	// trace
	res.set("trace.events", float64(events), "count")
	// bench
	res.set("bench.gen_lag_p99_ms", genLagP99(openS), "ms")
	res.set("bench.trace_overhead", l.stmtUS/mixPercentile(rp.untraced, 50), "ratio")
	res.set("bench.self_us", l.spanSelfUS["bench.stmt"], "us")
	res.set("bench.stmt_us", l.stmtUS, "us")
	res.set("bench.fail_ratio", float64(failed)/float64(attempted), "ratio")

	fmt.Fprintf(os.Stderr, "servebench: replayed %d statements, %d of them traced; bases: %d filtered pages, %d buffer fetches, %d commit groups\n",
		rp.attempted, len(rp.traced), l.filtered, bufHits+bufMisses, groups)
	fmt.Fprintf(os.Stderr, "servebench: replay p50 per statement kind (us): socket / traced / untraced\n")
	for k := kind(0); k < numKinds; k++ {
		if n := len(l.rootsUS[k]); n > 0 {
			fmt.Fprintf(os.Stderr, "  %-8s n=%-6d %10.2f %10.2f %10.2f\n", kindNames[k], n,
				median(rp.socketUS[k]), median(l.rootsUS[k]), median(rp.untraced[k]))
		}
	}
	fmt.Fprintf(os.Stderr, "servebench: median span and self time per layer call (us):\n")
	names := make([]string, 0, len(l.spanUS))
	for k := range l.spanUS {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-20s span %10.2f self %10.2f\n", k, l.spanUS[k], l.spanSelfUS[k])
	}
	return res, nil
}

// layers is what the traced replay's spans and counters add up to.
type layers struct {
	spanUS, spanSelfUS map[string]float64  // median per span name
	execUS             [numClasses]float64 // ExecuteStmt/ExecStmtTxn self time p50, weighted over kinds
	rootsUS            [numKinds][]float64 // traced statement durations
	stmtUS             float64             // traced statement p50, weighted over kinds (mixPercentile)
	snapshotUS         float64

	parallelShare, workersMean, replans     float64
	pagesPerSelect, pruneRatio, pagesPerRow float64
	walAppendsPerWrite, walBytesPerWrite    float64
	pagesPerWrite                           float64
	filtered                                int
}

func layerMetrics(d *dataset, rp *replayResult) layers {
	spans := rp.rec.spans
	self := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	var exec [numKinds][]float64
	snap := map[int]float64{}
	var roots [numKinds][]float64
	for i, s := range spans {
		du, su := float64(s.end-s.start)/1e3, float64(self[i])/1e3
		durs[s.name] = append(durs[s.name], du)
		selfs[s.name] = append(selfs[s.name], su)
		st := &d.stream[s.stmt]
		switch s.name {
		case "bench.stmt":
			roots[st.kind] = append(roots[st.kind], du)
		case "query.exec":
			exec[st.kind] = append(exec[st.kind], su)
		case "storage.begin", "storage.rollback":
			if st.class() != clsWrite {
				snap[s.stmt] += du
			}
		}
	}
	l := layers{spanUS: map[string]float64{}, spanSelfUS: map[string]float64{}, rootsUS: roots, stmtUS: mixPercentile(roots, 50)}
	for k := range durs {
		l.spanUS[k], l.spanSelfUS[k] = median(durs[k]), median(selfs[k])
	}
	for c := range l.execUS {
		l.execUS[c] = mixPercentile(ofClass(exec, class(c)), 50)
	}
	snaps := make([]float64, 0, len(snap))
	for _, v := range snap {
		snaps = append(snaps, v)
	}
	l.snapshotUS = median(snaps)

	var sel, par, workers, selPages, rows, pruned, writes, wPages int
	var walApp uint64
	var walBytes int64
	for _, st := range rp.traced {
		if d.stream[st.idx].class() == clsWrite {
			writes++
			wPages += st.pages
			walApp += st.walAppends
			walBytes += st.walBytes
			continue
		}
		sel++
		selPages += st.pages
		rows += st.rows
		pruned += st.pruned
		l.filtered += st.filtered
		if st.rep != nil {
			if st.rep.Parallel {
				par++
				workers += st.rep.Workers
			}
			l.replans += float64(st.rep.Adaptive.Replans)
		}
	}
	l.parallelShare = ratio(par, sel)
	l.workersMean = ratio(workers, par)
	l.pagesPerSelect = ratio(selPages, sel)
	l.pruneRatio = ratio(pruned, l.filtered)
	l.pagesPerRow = ratio(selPages, rows)
	l.walAppendsPerWrite = ratio(int(walApp), writes)
	l.walBytesPerWrite = ratio(int(walBytes), writes)
	l.pagesPerWrite = ratio(wPages, writes)
	return l
}

// ratio is a/b, 0 when b is 0 (the layer was idle).
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
