package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/server"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// serverConfig is admsqld's flag defaults.
func serverConfig() server.Config {
	return server.Config{
		Addr:             "127.0.0.1:0",
		MaxInflight:      4,
		MaxQueue:         16,
		StatementTimeout: 2 * time.Second,
		WriteTimeout:     5 * time.Second,
		MemQuota:         64 << 20,
		Adaptive:         true,
		SLOMS:            50,
		Tick:             25 * time.Millisecond,
	}
}

// instance is one running server over its own store.
type instance struct {
	wal, data *storage.MemDisk
	db        *storage.DB
	eng       *query.Engine
	srv       *server.Server
	clients   [2]*server.Client

	loadS, checkpointS, setupS float64
	pages0                     int // user heap pages after set-up
}

// setup builds the store exactly as admsqld does (MemDisk, SyncManual,
// durable catalog), seeds it through a DBSession, checkpoints so zone
// maps exist, and starts the server. setupS covers all three.
func setup(d *dataset) (*instance, error) {
	t0 := time.Now()
	in := &instance{wal: storage.NewMemDisk(), data: storage.NewMemDisk()}
	db, err := storage.Open(in.wal, in.data, storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		return nil, err
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		return nil, err
	}
	in.db, in.eng = db, query.NewEngine(cat, nil, nil)
	sess := session.NewDBSession(in.eng, db)
	for _, q := range d.init {
		if _, err := sess.Exec(q); err != nil {
			return nil, errors.Join(fmt.Errorf("seed %.60q: %w", q, err), sess.Close())
		}
	}
	if err := sess.Close(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	in.srv = server.New(in.eng, db, serverConfig(), trace.New())
	if err := in.srv.Start(); err != nil {
		return nil, err
	}
	t3 := time.Now()
	in.loadS, in.checkpointS, in.setupS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t0).Seconds()
	in.pages0 = in.heapPages(d.tables)
	for c := range in.clients {
		if in.clients[c], err = server.Dial(in.srv.Addr(), ""); err != nil {
			return nil, errors.Join(err, in.close())
		}
	}
	return in, nil
}

// close disconnects the clients and stops the server.
func (in *instance) close() error {
	var errs []error
	for _, c := range in.clients {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	return errors.Join(append(errs, in.srv.Close())...)
}

func (in *instance) heapPages(tables []string) int {
	n := 0
	for _, name := range tables {
		if t, err := in.eng.Catalog().Table(name); err == nil {
			n += t.Heap.Pages()
		}
	}
	return n
}

// sample is one statement's outcome.
type sample struct {
	lat   time.Duration // closed loop: round trip; open loop: from due time
	lag   time.Duration // open loop: how late the generator sent it
	fail  bool          // the server reported an error
	wrong bool          // the answer broke the oracle
}

// run tracks one run's stream, acknowledged state and outcomes.
type run struct {
	d     *dataset
	in    *instance
	owned [2]map[int64]int64

	mu       sync.Mutex
	reported int // wrong answers printed so far
}

func newRun(d *dataset, in *instance) *run {
	r := &run{d: d, in: in}
	for c := range r.owned {
		r.owned[c] = map[int64]int64{}
		for k, v := range d.owned[c] {
			r.owned[c][k] = v
		}
	}
	return r
}

// judge records a statement's outcome into smp. A transport error
// (not a statement-level RemoteError) poisons the connection and is
// returned.
func (r *run) judge(c int, s *stmt, res *server.ClientResult, err error, smp *sample) error {
	if err != nil {
		var re *server.RemoteError
		if !errors.As(err, &re) {
			return fmt.Errorf("connection %d: %w", c, err)
		}
		smp.fail = true
		r.note("failed", s, err)
		return nil
	}
	if cerr := check(s, res.Rows, res.Affected, r.owned[c]); cerr != nil {
		smp.wrong = true
		r.note("wrong result", s, cerr)
	}
	return nil
}

// note prints the first few bad outcomes to standard error.
func (r *run) note(what string, s *stmt, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reported++; r.reported <= 5 {
		fmt.Fprintf(os.Stderr, "servebench: %s: %.120s: %v\n", what, s.sql, err)
	}
}

// phase sends stream[lo:hi) over both connections (statement j on
// connection j%2) and returns the outcomes and, per connection, the
// time from the phase's start to that connection's last reply. With
// rate 0 each connection sends back to back and a statement is timed
// from its send. With rate > 0 it is an open loop: statement j is due
// at start + (j-lo)/rate and is timed from then to when it would have
// completed had the generator sent it on time, that is at the later of
// its due time and the previous statement's completion; waiting behind
// a slow statement on the same connection counts, and the generator's
// own lateness (sleep granularity is about 1ms) is recorded as lag.
// Each phase starts from a collected heap: set-up and the phase before
// leave garbage whose collection would otherwise fall into the timed
// phase at a point that differs from trial to trial.
func (r *run) phase(lo, hi int, rate float64) ([]sample, [2]time.Duration, error) {
	out := make([]sample, hi-lo)
	runtime.GC()
	var errs [2]error
	var busy [2]time.Duration
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := t0 // on-time completion of the previous statement
			for j := lo + c; j < hi; j += 2 {
				s, smp := &r.d.stream[j], &out[j-lo]
				var due time.Time
				if rate > 0 {
					due = t0.Add(time.Duration(float64(j-lo) / rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				send := time.Now()
				res, err := r.in.clients[c].Query(s.sql)
				took := time.Since(send)
				if rate > 0 {
					onTime := due
					if done.After(onTime) {
						onTime = done
					}
					smp.lag = max(0, send.Sub(onTime))
					done = onTime.Add(took)
					smp.lat = done.Sub(due)
				} else {
					smp.lat = took
				}
				if errs[c] = r.judge(c, s, res, err, smp); errs[c] != nil {
					return
				}
			}
			busy[c] = time.Since(t0)
		}()
	}
	wg.Wait()
	return out, busy, errors.Join(errs[:]...)
}

// finalCheck reads every user table through query and compares it with
// the acknowledged state. It returns the live user bytes it read.
func (r *run) finalCheck(query func(sql string) ([]storage.Tuple, error)) (int64, error) {
	var live int64
	for _, s := range r.d.final(r.owned) {
		rows, err := query(s.sql)
		if err != nil {
			return 0, err
		}
		if err := check(&s, rows, 0, nil); err != nil {
			return 0, fmt.Errorf("%s: %w", s.sql, err)
		}
		for _, row := range rows {
			live += int64(len(storage.EncodeTuple(row)))
		}
	}
	return live, nil
}

// socketQuery reads through connection 0.
func (in *instance) socketQuery(sql string) ([]storage.Tuple, error) {
	res, err := in.clients[0].Query(sql)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// recoverCheck reopens the store from the bytes the WAL and page file
// hold now (as after a crash) and checks every acknowledged write is
// readable. The flush policy is admsqld's SyncManual over MemDisk, so
// this proves redo recovery, not device flushes. It returns the
// reopen time in seconds.
func (r *run) recoverCheck() (float64, error) {
	t0 := time.Now()
	db, err := storage.Open(storage.NewMemDiskFrom(r.in.wal.Bytes()), storage.NewMemDiskFrom(r.in.data.Bytes()),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		return 0, fmt.Errorf("reopen catalog: %w", err)
	}
	took := time.Since(t0).Seconds()
	eng := query.NewEngine(cat, nil, nil)
	_, err = r.finalCheck(func(sql string) ([]storage.Tuple, error) {
		t := db.Txns().Begin()
		defer func() { _ = t.Rollback() }() // read-only snapshot
		res, _, err := eng.ExecuteSQL(sql, query.ExecOptions{Txn: t})
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	})
	if err != nil {
		return 0, fmt.Errorf("after recovery: %w", err)
	}
	return took, nil
}
