package query

import (
	"errors"
	"fmt"
	"math"

	"github.com/adm-project/adm/internal/operators"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

// This file is the eddies-style staged router, the one executor of
// Scenario 3's intra-query adaptation for every hash-join plan. The
// plan's join tree is not compiled into a fixed operator chain;
// instead the router materialises one hash join at a time and, before
// each one, re-decides which remaining scan to attach and which side
// builds, using live cardinality feedback:
//
//   - the joined prefix's cardinality is exact (it is materialised);
//   - every base-scan estimate starts from the optimiser's guess and
//     is corrected upward whenever a safe-point build abort proves it
//     low (est' = max(est·θ, observed)), so repeated misestimates
//     decay geometrically and the loop must terminate;
//   - candidate ranking reuses the planner's attachEst, so the router
//     and the greedy planner agree whenever the statistics were right.
//
// For a single join this is the paper's inner/outer swap: the build
// of the (believed) smaller side stops at a safe point, the aborted
// prefix replays ahead of that side's remainder, and the other side
// builds instead.
//
// Determinism: a build abort drains every worker at the phase barrier
// and hands back the claimed prefix, which is re-chained in front of
// the untouched remainder of that scan's batch source — no tuple is
// lost or read twice, whatever the worker count or batch size. Join
// output is a set: routing order changes the column layout (undone by
// one final permutation to declaration order, or folded into the
// fused probe projection) and the row order (meaningless without
// ORDER BY, and ORDER BY has a total-order tie-break), never the
// result multiset.

// execStagedJoins executes a plan whose steps are all hash joins with
// continuous safe-point adaptation. rep.Adaptive is filled in; the
// caller decides Parallel/Workers. Each JOIN clause contributes one ON
// edge, so a plan with no cartesian step has exactly n-1 edges
// spanning its n scans: every edge is some join's hash condition and
// none is left over as a residual filter (those arise only beside
// cartesian steps, which the serial executor runs).
func (e *Engine) execStagedJoins(plan *selectPlan, opts ExecOptions, rep *ExecReport) (*Result, error) {
	acfg := opts.adaptive()
	span := e.log.Span("query.routing")
	cfg := e.parallelConfig(opts, span)

	n := len(plan.scans)
	est := make([]float64, n) // live per-scan estimates, corrected on aborts
	for i, sp := range plan.scans {
		est[i] = sp.estRows
	}
	adj := buildAdjacency(n, plan.edges)
	srcs := make([]operators.BatchSource, n)
	src := func(i int) (operators.BatchSource, error) {
		if srcs[i] == nil {
			s, err := scanBatches(plan.scans[i], opts.BatchSize)
			if err != nil {
				return nil, err
			}
			srcs[i] = s
		}
		return srcs[i], nil
	}

	seed := 0
	chosen := make([]bool, n)
	chosen[seed] = true
	attached := 1
	usedEdge := make([]bool, len(plan.edges))
	var layout []int        // scan indices in the intermediate's column order
	var cur []storage.Tuple // materialised joined prefix (nil before first join)
	firstAttempt := true

	for attached < n {
		curEst := est[seed]
		if cur != nil {
			curEst = float64(len(cur))
		}

		// Route: which scan joins next?
		next := -1
		if acfg.Disabled {
			next = attached // follow the static plan verbatim
		} else {
			var bestCost float64
			for c := 0; c < n; c++ {
				if chosen[c] {
					continue
				}
				out, conn := attachEst(curEst, est[c], c, plan.scans, plan.edges, adj, chosen)
				if !conn {
					continue
				}
				cost := out
				if joinIndexAvailable(c, plan.scans, plan.edges, adj, chosen) {
					cost *= 0.9
				}
				if next < 0 || cost < bestCost || (cost == bestCost && est[c] < est[next]) {
					next, bestCost = c, cost
				}
			}
			if next < 0 {
				// Unreachable for plans without cross steps (the join
				// graph is connected), kept as a hard failure rather
				// than a silent cartesian product.
				return nil, fmt.Errorf("query: staged router: no connected join candidate")
			}
		}

		// Hash condition: the first unused ON edge linking next to the
		// prefix (clause order, matching deriveSteps).
		he := -1
		for ei, ed := range plan.edges {
			if usedEdge[ei] {
				continue
			}
			if (ed.a == next && chosen[ed.b]) || (ed.b == next && chosen[ed.a]) {
				he = ei
				break
			}
		}
		if he < 0 {
			return nil, fmt.Errorf("query: staged router: no join edge for %s",
				plan.scans[next].ref.Binding())
		}
		ed := plan.edges[he]
		nextCol, pScan, pCol := ed.aCol, ed.b, ed.bCol
		if ed.b == next {
			nextCol, pScan, pCol = ed.bCol, ed.a, ed.aCol
		}

		// Side choice: the smaller (estimated, or exact for the
		// materialised prefix) side builds.
		buildNext := est[next] < curEst
		if acfg.Disabled {
			buildNext = !plan.steps[attached-1].buildLeft
		}

		// Orient the join. A base-scan build side (bScan >= 0) runs
		// under safe points; the materialised prefix's cardinality is
		// exact, so building on it needs none.
		var (
			bsrc, psrc  operators.BatchSource
			bCol, prCol int
			bScan       = -1
			bLay, prLay []int // scans laid out in the build / probe side
			err         error
		)
		switch {
		case cur == nil:
			// First join: both sides are base scans.
			bScan, bCol, bLay, prLay, prCol = pScan, pCol, []int{pScan}, []int{next}, nextCol
			if buildNext {
				bScan, bCol, bLay, prLay, prCol = next, nextCol, []int{next}, []int{pScan}, pCol
			}
			if firstAttempt {
				rep.Adaptive.InitialBuild = plan.scans[bScan].ref.Binding()
				rep.Adaptive.EstimatedBuildRows = est[bScan]
				firstAttempt = false
			}
			if psrc, err = src(prLay[0]); err != nil {
				return nil, err
			}
		case buildNext:
			bScan, bCol, bLay, prLay = next, nextCol, []int{next}, layout
			psrc = operators.NewSliceBatches(cur, opts.BatchSize)
			prCol = posIn(plan, layout, pScan, pCol)
		default:
			bsrc = operators.NewSliceBatches(cur, opts.BatchSize)
			bCol, bLay, prLay = posIn(plan, layout, pScan, pCol), layout, []int{next}
			if psrc, err = src(next); err != nil {
				return nil, err
			}
			prCol = nextCol
		}

		var bt *operators.BuildTable
		if bScan >= 0 {
			if bsrc, err = src(bScan); err != nil {
				return nil, err
			}
			var ab *operators.BuildAbort
			if bt, ab, err = e.stagedBuild(plan, span, bsrc, bCol, bScan, est, cfg, acfg, rep); err != nil {
				return nil, err
			}
			if bt == nil {
				srcs[bScan] = operators.NewChainBatches(
					operators.NewSliceBatches(ab.Prefix, opts.BatchSize), srcs[bScan])
				if cur == nil {
					// Nothing is materialised yet, so even the seed can
					// move: re-pick the cheapest scan under the corrected
					// estimates. (The aborted prefix is chained back, so
					// every scan is still fully replayable.)
					for i := range est {
						if est[i] < est[seed] {
							chosen[seed] = false
							seed = i
							chosen[seed] = true
						}
					}
				}
				continue // re-route with the corrected estimate
			}
		} else if bt, _, err = operators.ParallelBuildBatches(bsrc, bCol, cfg, nil); err != nil {
			return nil, err
		}
		if bt.Rows() > rep.Adaptive.PeakHashRows {
			rep.Adaptive.PeakHashRows = bt.Rows()
		}
		if cur == nil {
			rep.Adaptive.FinalBuild = plan.scans[bScan].ref.Binding()
			rep.Adaptive.ExecutedOrder = append(rep.Adaptive.ExecutedOrder,
				plan.scans[bScan].ref.Binding(), plan.scans[prLay[0]].ref.Binding())
		} else {
			rep.Adaptive.ExecutedOrder = append(rep.Adaptive.ExecutedOrder, plan.scans[next].ref.Binding())
		}
		// The probe emits (build, probe) tuples.
		layout = append(append([]int(nil), bLay...), prLay...)
		usedEdge[he] = true
		chosen[next] = true
		attached++

		if attached == n {
			if cols, names, ok := joinFastCols(plan, layout); ok {
				// Final join of a plain projection: fuse the projection
				// (and the LIMIT quota) into the probe.
				out, err := bt.ParallelProbeProject(psrc, prCol, probeLimitCfg(plan.stmt, cfg),
					cols, layoutWidth(plan, bLay))
				if err != nil {
					return nil, err
				}
				return e.limitResult(plan, names, out), nil
			}
		}
		if cur, err = bt.ParallelProbeBatches(psrc, prCol, cfg); err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			break // inner joins only: an empty prefix ends the query
		}
	}

	rows := permuteToDecl(cur, permForLayout(plan, layout))
	return e.finishSelectParallel(plan, rows, cfg)
}

// stagedBuild runs one safe-pointed hash build for scan b. On a
// cardinality violation it corrects est[b], emits the violation /
// re-route trace events and returns (nil, abort, nil) — the caller
// re-chains the claimed prefix and re-routes. On success it returns
// the build table.
func (e *Engine) stagedBuild(plan *selectPlan, span *trace.Span, bsrc operators.BatchSource,
	bCol, b int, est []float64, cfg operators.ParallelConfig, acfg AdaptiveConfig,
	rep *ExecReport) (*operators.BuildTable, *operators.BuildAbort, error) {
	cfg.SafePointEvery = acfg.CheckEvery
	var safePoint func(int) bool
	if !acfg.Disabled {
		limit := acfg.Theta * est[b]
		safePoint = func(rows int) bool {
			span.Emit(e.clock(), trace.KindSafePoint,
				"build safe point at %d rows (est %.0f)", rows, est[b])
			return float64(rows) <= limit
		}
	}
	bt, ab, err := operators.ParallelBuildBatches(bsrc, bCol, cfg, safePoint)
	if !errors.Is(err, operators.ErrBuildAborted) {
		return bt, nil, err
	}
	if !rep.Adaptive.Replanned {
		rep.Adaptive.Replanned = true
		rep.Adaptive.TriggerRow = ab.TriggerRow
	}
	rep.Adaptive.Replans++
	if ab.Hashed > rep.Adaptive.PeakHashRows {
		rep.Adaptive.PeakHashRows = ab.Hashed
	}
	span.Emit(e.clock(), trace.KindViolation,
		"cardinality misestimate: %s build hit %d rows vs est %.0f (θ=%.1f); workers drained at barrier",
		plan.scans[b].ref.Binding(), ab.TriggerRow, est[b], acfg.Theta)
	// Every claimed row is a real row of the scan, so the whole prefix
	// bounds its cardinality from below.
	est[b] = math.Max(est[b]*acfg.Theta, float64(len(ab.Prefix)))
	span.Emit(e.clock(), trace.KindReoptimize,
		"re-routing remaining joins: %s estimate corrected to %.0f",
		plan.scans[b].ref.Binding(), est[b])
	return nil, ab, nil
}

// layoutWidth is the tuple width of the scans in lay.
func layoutWidth(plan *selectPlan, lay []int) int {
	w := 0
	for _, si := range lay {
		w += len(plan.scans[si].sch)
	}
	return w
}

// posIn locates scan-local column col of scan in the intermediate
// tuple described by layout.
func posIn(plan *selectPlan, layout []int, scan, col int) int {
	o := 0
	for _, si := range layout {
		if si == scan {
			return o + col
		}
		o += len(plan.scans[si].sch)
	}
	return -1
}

// permForLayout computes the layout → declaration-order permutation
// (nil when they already agree, or when there are no rows to permute).
func permForLayout(plan *selectPlan, layout []int) []int {
	if len(layout) != len(plan.scans) {
		return nil // early-exit on empty prefix: nothing to permute
	}
	offs := make([]int, len(plan.scans))
	o := 0
	for _, si := range layout {
		offs[si] = o
		o += len(plan.scans[si].sch)
	}
	byDecl := make([]int, len(plan.scans))
	for ji, sp := range plan.scans {
		byDecl[sp.declPos] = ji
	}
	perm := make([]int, 0, len(plan.sch))
	identity := true
	for d := 0; d < len(byDecl); d++ {
		ji := byDecl[d]
		for k := 0; k < len(plan.scans[ji].sch); k++ {
			p := offs[ji] + k
			identity = identity && p == len(perm)
			perm = append(perm, p)
		}
	}
	if identity {
		return nil
	}
	return perm
}
