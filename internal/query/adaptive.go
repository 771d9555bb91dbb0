package query

import (
	"fmt"
	"strings"
)

// This file holds the knobs and the report of Scenario 3
// (intra-query adaptation): "the statistics provided by the metadata
// are not quite accurate enough for the pre-optimisor to build the
// optimal plan. It becomes obvious that the original cost
// calculations need revised ... The query plan is revised to perhaps
// change the join's inner-loop to the outer-loop or add an index to
// one of the tables. The components that carry out this are called
// upon and linked into the query pipeline at run-time."
//
// The staged router (routing.go) runs every hash build with safe
// points every CheckEvery rows. When the observed build cardinality
// exceeds Theta × the optimiser's estimate, the build aborts at the
// safe point and the plan is revised: the join sides swap or the next
// join is re-chosen, and the consumed build prefix is replayed, so no
// work is lost and no result is duplicated.

// AdaptiveConfig tunes the mid-query re-optimiser.
type AdaptiveConfig struct {
	// Theta is the misestimate ratio that triggers replanning.
	Theta float64
	// CheckEvery is the safe-point cadence in build rows.
	CheckEvery int
	// Disabled turns safe-point adaptation off entirely: the executor
	// follows the static plan verbatim (no feedback, no replans). Used
	// by benchmarks to isolate plan-time ordering from runtime routing.
	Disabled bool
}

// DefaultAdaptiveConfig returns Theta=3, CheckEvery=64.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{Theta: 3, CheckEvery: 64}
}

// AdaptiveReport describes what the re-optimiser did.
type AdaptiveReport struct {
	Replanned bool
	// Replans counts safe-point plan revisions (one per aborted build;
	// the router can revise more than once per statement).
	Replans int
	// TriggerRow is the build row count at the safe point where the
	// first violation fired.
	TriggerRow int
	// EstimatedBuildRows is what the optimiser believed.
	EstimatedBuildRows float64
	// InitialBuild / FinalBuild name the build-side bindings of the
	// first join the router executed.
	InitialBuild string
	FinalBuild   string
	// PeakHashRows is the largest hash table materialised across the
	// whole execution (memory proxy), aborted builds included.
	PeakHashRows int
	// ExecutedOrder lists table bindings in the order the router
	// actually materialised them (empty when execution followed the
	// static plan trivially, e.g. join-free statements).
	ExecutedOrder []string
}

// Describe renders the post-execution adaptation summary appended to
// Explain output. Golden tests pin this format.
func (r *AdaptiveReport) Describe() string {
	if !r.Replanned {
		return "adapt: none"
	}
	s := fmt.Sprintf("adapt: replans=%d trigger=%d build=%s->%s",
		r.Replans, r.TriggerRow, r.InitialBuild, r.FinalBuild)
	if len(r.ExecutedOrder) > 0 {
		s += " order=" + strings.Join(r.ExecutedOrder, ",")
	}
	return s
}
