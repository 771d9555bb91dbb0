package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/server"
	"github.com/adm-project/adm/internal/storage"
)

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	t0    time.Time
	spans []span
	stmt  int
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, stmt: r.stmt, start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].end = int64(time.Since(r.t0))
	}
}

// write dumps the spans as CSV.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "stmt,span,parent,name,start_ns,end_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.stmt, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the story
		return err
	}
	return f.Close()
}

// stmtStats is what one in-process statement did.
type stmtStats struct {
	rows, pages      int // rows returned, buffer pages fetched
	pruned, filtered int // zone-map pruned pages of filtered pages
	walAppends       uint64
	walBytes         int64
	rep              *query.ExecReport
	dur              time.Duration // admission to release
}

// errWrong marks an answer that broke the oracle.
var errWrong = errors.New("wrong result")

// execInProcess runs one autocommit statement in-process, checks its
// answer, and (when rec is non-nil) records spans and counters.
func (r *run) execInProcess(s *stmt, c int, rec *recorder) (stmtStats, error) {
	var st stmtStats
	var before storage.DBStats
	if rec != nil {
		before = r.in.db.Stats()
	}
	t0 := time.Now()
	root := rec.begin("bench.stmt", -1)
	res, rep, err := r.serve(s.sql, rec, root)
	rec.end(root)
	st.dur, st.rep = time.Since(t0), rep
	if err != nil {
		return st, err
	}
	if cerr := check(s, res.Rows, res.Affected, r.owned[c]); cerr != nil {
		return st, fmt.Errorf("%w: %v", errWrong, cerr)
	}
	if rec != nil {
		after := r.in.db.Stats()
		st.pages = int(after.Buffer.Hits + after.Buffer.Misses - before.Buffer.Hits - before.Buffer.Misses)
		st.walAppends = after.WALAppends - before.WALAppends
		st.walBytes = after.WALBytes - before.WALBytes
		st.rows = len(res.Rows)
		st.pruned, st.filtered = parsePruned(res.Plan)
	}
	return st, nil
}

// serve makes the layers' public calls in the order Server.handleQuery
// and DBSession.ExecOpts make them for an autocommit statement, with
// one child span of root per call.
func (r *run) serve(sql string, rec *recorder, root int) (*query.Result, *query.ExecReport, error) {
	cfg := serverConfig()
	adm := r.in.srv.Admission()
	sp := rec.begin("server.admission", root)
	err := adm.Acquire(cfg.StatementTimeout)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		sp := rec.begin("server.release", root)
		adm.Release()
		rec.end(sp)
	}()
	sp = rec.begin("query.parse", root)
	parsed, err := query.Parse(sql)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	tun := r.in.srv.Controller().Tuning()
	var expired atomic.Bool
	timer := time.AfterFunc(cfg.StatementTimeout, func() { expired.Store(true) })
	defer timer.Stop()
	opts := query.ExecOptions{
		Workers:   tun.Workers,
		BatchSize: tun.Batch,
		Cancel: func() error {
			if expired.Load() {
				return server.ErrDeadline
			}
			return nil
		},
		MemBudget: operators.NewMemBudget(cfg.MemQuota),
	}
	sp = rec.begin("storage.begin", root)
	txn := r.in.db.Txns().Begin()
	rec.end(sp)
	if sel, ok := parsed.(*query.SelectStmt); ok {
		opts.Txn = txn
		sp = rec.begin("query.exec", root)
		res, rep, err := r.in.eng.ExecuteStmt(sel, opts)
		rec.end(sp)
		sp = rec.begin("storage.rollback", root)
		_ = txn.Rollback() // read-only snapshot: writes no WAL, cannot fail
		rec.end(sp)
		return res, rep, err
	}
	sp = rec.begin("query.exec", root)
	res, err := r.in.eng.ExecStmtTxn(parsed, txn)
	rec.end(sp)
	if err != nil {
		sp = rec.begin("storage.rollback", root)
		err = errors.Join(err, txn.Rollback())
		rec.end(sp)
		return nil, nil, err
	}
	sp = rec.begin("storage.commit", root)
	err = txn.Commit()
	rec.end(sp)
	return res, nil, err
}

// explain plans a SELECT without running it (EXPLAIN of the parsed
// statement), recorded as its own root span.
func (r *run) explain(s *stmt, rec *recorder) error {
	parsed, err := query.Parse(s.sql)
	if err != nil {
		return err
	}
	sel, ok := parsed.(*query.SelectStmt)
	if !ok {
		return nil
	}
	txn := r.in.db.Txns().Begin()
	defer func() { _ = txn.Rollback() }() // read-only snapshot
	sp := rec.begin("query.plan", -1)
	_, err = r.in.eng.ExecStmtTxn(&query.ExplainStmt{Select: sel}, txn)
	rec.end(sp)
	return err
}

// tracedStmt is a statement the replay ran with spans.
type tracedStmt struct {
	idx int // in the stream
	stmtStats
}

// replayResult is the traced replay's raw output.
type replayResult struct {
	rec       *recorder
	traced    []tracedStmt
	socketUS  [numKinds][]float64 // round trips of the statements sent over the socket, µs
	untraced  [numKinds][]float64 // in-process statements run without spans, µs
	before    storage.DBStats
	after     storage.DBStats
	attempted int
	failed    int
	wrong     int
}

// replay runs stream[lo:hi) one statement at a time in stream order,
// rotating each statement through three paths: over the socket on its
// own connection, in-process with spans, and in-process without.
// History is the same as a concurrent run of the same statements,
// because the connections' keys are disjoint.
func (r *run) replay(lo, hi int) (*replayResult, error) {
	out := &replayResult{rec: &recorder{t0: time.Now()}, before: r.in.db.Stats()}
	nsel := 0
	for j := lo; j < hi; j++ {
		s, c := &r.d.stream[j], j%2
		out.attempted++
		var err error
		switch (j - lo) % 3 {
		case 0:
			t := time.Now()
			res, qerr := r.in.clients[c].Query(s.sql)
			out.socketUS[s.kind] = append(out.socketUS[s.kind], float64(time.Since(t))/1e3)
			var smp sample
			if err = r.judge(c, s, res, qerr, &smp); err != nil {
				return nil, err
			}
			out.failed += b2i(smp.fail || smp.wrong)
			out.wrong += b2i(smp.wrong)
			continue
		case 1:
			out.rec.stmt = j
			var st stmtStats
			st, err = r.execInProcess(s, c, out.rec)
			out.traced = append(out.traced, tracedStmt{j, st})
			if s.class() != clsWrite {
				if nsel++; nsel%8 == 0 && err == nil {
					err = r.explain(s, out.rec)
				}
			}
		case 2:
			var st stmtStats
			st, err = r.execInProcess(s, c, nil)
			out.untraced[s.kind] = append(out.untraced[s.kind], float64(st.dur)/1e3)
		}
		if err != nil {
			out.failed++
			out.wrong += b2i(errors.Is(err, errWrong))
			r.note("in-process", s, err)
		}
	}
	out.after = r.in.db.Stats()
	return out, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
