package query

import (
	"errors"
	"fmt"
	"runtime"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// This file wires the morsel-driven exchange layer (operators
// package) into the SQL engine: ExecuteSQL runs SPJ + aggregation
// plans across a configurable worker pool. The data plane is the
// vectorized batch path: heap scans decode whole pages into pooled
// batches, filters compact in place inside the scanning worker, and
// joins build/probe on struct keys. Every hash-join plan runs through
// the staged router (routing.go), which carries the Scenario 3
// safe-point protocol.

// ExecOptions tunes ExecuteSQL.
type ExecOptions struct {
	// Workers is the worker count; <=0 means GOMAXPROCS.
	Workers int
	// BatchSize is the tuples-per-batch granularity of the vectorized
	// exchange; <=0 means the operators-package default (heap scans are
	// page-granular anyway). Results are identical at any batch size —
	// only the amortisation changes.
	BatchSize int
	// Adaptive tunes mid-query re-optimisation; nil means
	// DefaultAdaptiveConfig() — the safe-point protocol is always on.
	Adaptive *AdaptiveConfig
	// JoinOrder selects the planner's join-ordering strategy
	// (default JoinOrderGreedy). JoinOrderDeclared is the mis-ordered
	// baseline knob benchmarks use.
	JoinOrder JoinOrder
	// Txn, when non-nil, executes the statement inside that
	// transaction: scans bind to its snapshot (reads stay lock-free
	// across every worker) and DML stamps its id.
	Txn *storage.Txn
	// NoVectorKernels forces the boxed per-row predicate path,
	// disabling the compiled filter kernels and zone-map page pruning.
	// The boxed path is the reference semantics — benchmarks and
	// differential tests flip this to compare against it.
	NoVectorKernels bool
	// Cancel, when non-nil, is polled by the parallel workers between
	// batches: a non-nil return cancels the statement cooperatively
	// and surfaces as its error. Per-statement deadlines and
	// dead-client kills thread through here into the morsel
	// pipelines. Must be safe for concurrent use and cheap.
	Cancel func() error
	// MemBudget, when non-nil, meters the bytes the statement
	// materialises across every parallel phase; overflow cancels it
	// with operators.ErrMemBudget.
	MemBudget *operators.MemBudget

	// panicInWorker, when set (tests only), runs inside each worker
	// goroutine as it finishes a phase — the injection point the
	// panic-containment tests use to blow up a live worker.
	panicInWorker func(worker int, phase string)
}

// ExecReport describes how ExecuteSQL ran.
type ExecReport struct {
	// Parallel is false when the statement took the serial path
	// (non-SELECT, a cartesian join, or a contained worker panic).
	Parallel bool
	// Workers is the effective worker count of a parallel run.
	Workers int
	// Adaptive reports what the mid-query re-optimiser did.
	Adaptive AdaptiveReport
	// PanicContained is true when a parallel worker panicked and the
	// statement was transparently re-executed on the serial plan: one
	// bad worker degrades the query instead of killing the process.
	PanicContained bool

	// scans carries the executed plan's scan list out of the run so the
	// outer wrapper can append each scan's filter summary (kernel vs
	// boxed, pages pruned) to the plan rendering post-execution.
	scans []*scanPlan
}

// ExecuteSQL parses and executes one statement with the parallel
// executor. SELECTs without cartesian joins run across workers;
// everything else falls back to the serial engine (Report.Parallel
// reports which happened). Result row order is nondeterministic
// unless the statement has an ORDER BY.
func (e *Engine) ExecuteSQL(sql string, opts ExecOptions) (*Result, *ExecReport, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return e.ExecuteStmt(st, opts)
}

// ExecuteStmt is ExecuteSQL over a pre-parsed statement (the server
// front-end parses once to route transaction control before execution).
func (e *Engine) ExecuteStmt(st Stmt, opts ExecOptions) (*Result, *ExecReport, error) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		res, err := e.ExecStmtTxn(st, opts.Txn)
		return res, &ExecReport{}, err
	}
	return e.execSelectParallel(sel, opts)
}

func (o ExecOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o ExecOptions) adaptive() AdaptiveConfig {
	if o.Adaptive != nil {
		cfg := *o.Adaptive
		if cfg.Theta <= 1 {
			cfg.Theta = 3
		}
		if cfg.CheckEvery <= 0 {
			cfg.CheckEvery = 64
		}
		return cfg
	}
	return DefaultAdaptiveConfig()
}

// scanBatches builds the batch source for one scan: page-granular
// shared heap cursors with kernel-fused filtering (zone-map pruning +
// vectorized conjuncts inside the claiming worker) on the sequential
// path, the boxed in-place filter when kernels are disabled, and a
// serialised (but still fan-out-feeding) adapter on the index path.
func scanBatches(sp *scanPlan, size int) (operators.BatchSource, error) {
	if sp.indexCol != "" {
		it, err := sp.build()
		if err != nil {
			return nil, err
		}
		return operators.NewIterBatches(it, size), nil
	}
	if len(sp.preds) > 0 && !sp.noKernel {
		k, err := sp.filterKernel()
		if err != nil {
			return nil, err
		}
		return operators.NewHeapBatchesKernel(sp.reader, k), nil
	}
	var src operators.BatchSource = operators.NewHeapBatches(sp.reader)
	if len(sp.preds) > 0 {
		pred, err := compilePreds(sp.sch, sp.preds)
		if err != nil {
			return nil, err
		}
		src = operators.NewFilterBatches(src, pred)
	}
	return src, nil
}

// execSelectParallel runs the parallel plan with panic containment:
// a worker panic surfaces as *operators.PanicError after all its
// peers have drained at the phase barrier (the failFlag protocol), at
// which point no goroutine of the failed run is still touching shared
// state — so the statement is transparently re-executed on the serial
// plan. Errors other than contained panics pass through untouched.
func (e *Engine) execSelectParallel(st *SelectStmt, opts ExecOptions) (*Result, *ExecReport, error) {
	res, rep, err := e.execSelectParallelRun(st, opts)
	var pe *operators.PanicError
	if !errors.As(err, &pe) {
		if err == nil && res != nil && rep != nil {
			if rep.Adaptive.Replanned {
				// Post-execution adaptation summary: where the router fired.
				res.Plan += " | " + rep.Adaptive.Describe()
			}
			// Per-scan filter summaries: kernel vs boxed conjuncts and the
			// zone-map prune counters observed during this execution.
			for _, sp := range rep.scans {
				if fs := sp.filterSummary(); fs != "" {
					res.Plan += " | " + fs
				}
			}
		}
		return res, rep, err
	}
	e.log.Span("query.parallel").Emit(e.clock(), trace.KindPanic,
		"worker %d panicked in %s phase (%v); degrading to serial plan", pe.Worker, pe.Phase, pe.Value)
	res, serr := e.execSelect(st, opts.Txn)
	if rep == nil {
		rep = &ExecReport{}
	}
	rep.Parallel = false
	rep.PanicContained = true
	return res, rep, serr
}

func (e *Engine) execSelectParallelRun(st *SelectStmt, opts ExecOptions) (*Result, *ExecReport, error) {
	plan, err := e.planSelectOrder(st, opts.Txn, opts.JoinOrder)
	if err != nil {
		return nil, nil, err
	}
	rep := &ExecReport{}
	if plan.hasCross() {
		// Cartesian attaches (disconnected join graphs) stay on the
		// serial executor.
		res, err := e.execSelect(st, opts.Txn)
		return res, rep, err
	}
	if opts.NoVectorKernels {
		for _, sp := range plan.scans {
			sp.noKernel = true
		}
	}
	rep.scans = plan.scans
	workers := opts.workers()
	rep.Parallel = true
	rep.Workers = workers
	plan.explainTx = fmt.Sprintf("Parallel(workers=%d) ", workers) + plan.explainTx

	if len(plan.steps) > 0 {
		// Hash joins: the staged router executes the pipeline one join
		// at a time, re-routing at safe points on cardinality feedback.
		res, err := e.execStagedJoins(plan, opts, rep)
		return res, rep, err
	}

	cfg := e.parallelConfig(opts, e.log.Span("query.parallel"))
	src, err := scanBatches(plan.scans[0], opts.BatchSize)
	if err != nil {
		return nil, nil, err
	}
	if st.OrderBy != nil && !hasAggregate(st) && st.GroupBy == nil {
		// Bare ordered scan: runs (or Top-K heaps) form inside the
		// scan workers themselves — pages are claimed, keys extracted
		// and partial orders built without an intermediate unordered
		// materialisation.
		idx, err := plan.sch.resolve(*st.OrderBy)
		if err != nil {
			return nil, nil, err
		}
		rows, err := orderSourceParallel(src, idx, st.Desc, st.Limit, cfg)
		if err != nil {
			return nil, nil, err
		}
		res, err := e.finishProjectTail(plan, rows)
		return res, rep, err
	}
	scanCfg := cfg
	if st.OrderBy == nil && !hasAggregate(st) && st.GroupBy == nil && st.Limit > 0 {
		// Unordered LIMIT: any prefix is valid, so a satisfied quota
		// stops the workers claiming pages (early termination).
		scanCfg.Limit = st.Limit
	}
	rows, err := operators.DrainParallelBatches(src, scanCfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.finishSelectParallel(plan, rows, cfg)
	return res, rep, err
}

// parallelConfig is the exchange-layer configuration every parallel
// phase of one statement shares: worker count, batch size,
// cancellation, memory budget, and per-worker phase events on span.
func (e *Engine) parallelConfig(opts ExecOptions, span *trace.Span) operators.ParallelConfig {
	return operators.ParallelConfig{
		Workers:    opts.workers(),
		MorselSize: opts.BatchSize,
		Cancel:     opts.Cancel,
		Budget:     opts.MemBudget,
		OnWorker: func(w int, phase string, rows int) {
			if opts.panicInWorker != nil {
				opts.panicInWorker(w, phase)
			}
			span.Sub(fmt.Sprintf("w%d", w)).Emit(e.clock(), trace.KindInfo,
				"%s phase done: %d rows", phase, rows)
		},
	}
}

// joinFastCols decides whether a join statement can take the fused
// probe-projection path (no aggregate, no GROUP BY, no ORDER BY) and,
// when it can, remaps the projection from declaration order to the
// final join's output layout (scan indices in column order: build
// side, then probe). Resolution errors fall back to the slow path,
// which reports them identically.
func joinFastCols(plan *selectPlan, layout []int) ([]int, []string, bool) {
	st := plan.stmt
	if st.GroupBy != nil || st.OrderBy != nil || hasAggregate(st) {
		return nil, nil, false
	}
	cols, names, err := projectionCols(st, plan.sch)
	if err != nil {
		return nil, nil, false
	}
	if perm := permForLayout(plan, layout); perm != nil {
		for i, c := range cols {
			cols[i] = perm[c]
		}
	}
	return cols, names, true
}

// limitResult applies the statement's LIMIT (order is already
// nondeterministic, so any prefix is valid) and wraps the rows.
func (e *Engine) limitResult(plan *selectPlan, names []string, rows []storage.Tuple) *Result {
	if st := plan.stmt; st.Limit >= 0 && st.Limit < len(rows) {
		rows = rows[:st.Limit]
	}
	return &Result{Cols: names, Rows: rows, Plan: plan.Explain()}
}

// hasAggregate reports whether any select item aggregates.
func hasAggregate(st *SelectStmt) bool {
	for _, item := range st.Items {
		if item.Agg != AggNone {
			return true
		}
	}
	return false
}

// probeLimitCfg attaches the statement's LIMIT as a cooperative probe
// quota when the shape allows it (the fused probe-projection path is
// only taken with no aggregate, GROUP BY or ORDER BY, where any output
// prefix is a valid answer): a satisfied LIMIT stops the probe workers
// claiming batches instead of finishing the scan.
func probeLimitCfg(st *SelectStmt, cfg operators.ParallelConfig) operators.ParallelConfig {
	if st.Limit > 0 {
		cfg.Limit = st.Limit
	}
	return cfg
}

// orderSourceParallel runs the parallel sort pipeline over src: a
// bounded Top-K (limit >= 0) or worker-local runs merged through the
// loser tree. The returned rows are globally ordered and — by the
// shared comparator and content tie-break — identical to the serial
// Sort/TopK output at any worker count and batch size.
func orderSourceParallel(src operators.BatchSource, idx int, desc bool, limit int,
	cfg operators.ParallelConfig) ([]storage.Tuple, error) {
	if limit >= 0 {
		return operators.ParallelTopKBatches(src, idx, desc, limit, cfg)
	}
	merge, err := operators.ParallelSortBatches(src, idx, desc, cfg)
	if err != nil {
		return nil, err
	}
	return operators.Drain(merge)
}

// orderRowsParallel is orderSourceParallel over already-materialised
// rows (join output, aggregate output).
func orderRowsParallel(rows []storage.Tuple, idx int, desc bool, limit int,
	cfg operators.ParallelConfig) ([]storage.Tuple, error) {
	return orderSourceParallel(operators.NewSliceBatches(rows, cfg.MorselSize), idx, desc, limit, cfg)
}

// finishProjectTail is the non-aggregate projection/limit tail: rows
// arrive either unordered (no ORDER BY — any prefix is valid) or
// already globally ordered; the projection is resolved once and the
// whole result mapped through a single arena.
func (e *Engine) finishProjectTail(plan *selectPlan, rows []storage.Tuple) (*Result, error) {
	st := plan.stmt
	cols, names, err := projectionCols(st, plan.sch)
	if err != nil {
		return nil, err
	}
	if st.Limit >= 0 && st.Limit < len(rows) {
		rows = rows[:st.Limit]
	}
	identity := len(cols) == len(plan.sch)
	for i, c := range cols {
		identity = identity && c == i
	}
	if identity { // SELECT * / full-width: nothing to copy
		return &Result{Cols: names, Rows: rows, Plan: plan.Explain()}, nil
	}
	out, err := operators.ProjectTuples(nil, rows, cols)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: names, Rows: out, Plan: plan.Explain()}, nil
}

// finishSelectParallel applies aggregation / ordering / projection /
// limit to the materialised join or scan output. Aggregation runs
// through the parallel partial-accumulator path; ordering through the
// parallel sort/Top-K pipeline (worker runs + loser-tree merge over
// the materialised rows), so plans with ORDER BY stay on the parallel
// batch path end-to-end; plain projections take a batch fast path
// that carves all output values from one arena.
func (e *Engine) finishSelectParallel(plan *selectPlan, rows []storage.Tuple,
	cfg operators.ParallelConfig) (*Result, error) {
	st := plan.stmt
	if !hasAggregate(st) && st.GroupBy == nil {
		if st.OrderBy != nil {
			idx, err := plan.sch.resolve(*st.OrderBy)
			if err != nil {
				return nil, err
			}
			if rows, err = orderRowsParallel(rows, idx, st.Desc, st.Limit, cfg); err != nil {
				return nil, err
			}
		}
		return e.finishProjectTail(plan, rows)
	}
	ap, err := compileAggregate(st, plan.sch)
	if err != nil {
		return nil, err
	}
	aggRows, err := operators.ParallelHashAggregateBatches(
		operators.NewSliceBatches(rows, cfg.MorselSize), ap.groupCol, ap.specs, cfg)
	if err != nil {
		return nil, err
	}
	// Re-project to select-item order through the arena path, then
	// order the (already merged) groups on the same parallel pipeline.
	out, err := operators.ProjectTuples(nil, aggRows, ap.perm)
	if err != nil {
		return nil, err
	}
	if st.OrderBy != nil {
		idx, err := ap.outSch.resolve(*st.OrderBy)
		if err != nil {
			return nil, err
		}
		if out, err = orderRowsParallel(out, idx, st.Desc, st.Limit, cfg); err != nil {
			return nil, err
		}
	}
	if st.Limit >= 0 && st.Limit < len(out) {
		out = out[:st.Limit]
	}
	return &Result{Cols: ap.outCols, Rows: out, Plan: plan.Explain()}, nil
}
