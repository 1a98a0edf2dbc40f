// Package optimizer drives logical plan rewriting. It provides the rule
// engine the fusion rules plug into plus the classical rules of the
// "existing engine" the paper composes with: expression simplification,
// filter merging, predicate pushdown, projection pruning, distinct-
// aggregate lowering to MarkDistinct, and the semi-join/distinct interplay
// that enables the Q95 rewrite.
//
// Phases (matching §IV.E's ordering constraints):
//
//  1. Lowering: DISTINCT aggregates become MarkDistinct + masks.
//  2. Normalization: simplify, merge filters, push predicates down, so the
//     duplicate subtrees produced by CTE inlining end up structurally
//     identical and fusable.
//  3. Fusion (only when enabled): UnionAllOnJoin, UnionAllFusion,
//     GroupByJoinToWindow, the semi-join→distinct-join conversion with
//     distinct pushdown, and JoinOnKeys — all running before join
//     reordering over flattened n-ary join regions.
//  4. Cleanup: pushdown again (fusion exposes new opportunities), prune
//     unused columns (narrowing scans), and simplify.
package optimizer

import (
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/logical"
)

// Options configures an optimization run.
type Options struct {
	// EnableFusion turns the paper's rules on; off reproduces the baseline
	// engine.
	EnableFusion bool
	// MaxIterations caps each phase's fixpoint loop.
	MaxIterations int
	// Required lists the output columns the caller consumes; column pruning
	// preserves exactly these. Nil preserves the whole root schema.
	Required []*expr.Column
	// DisabledRules names fusion-phase rules to skip, for ablation studies
	// (e.g. "GroupByJoinToWindow", "JoinOnKeys", "UnionAllOnJoin",
	// "UnionAllFusion", "SemiJoinToDistinctJoin", "PushDistinctThroughJoin").
	DisabledRules []string
	// MinReuseRows gates each fusion rule on the estimated cardinality of
	// the duplicated common expression (the paper's statistics-based
	// applicability heuristic). Zero applies rules whenever they match.
	MinReuseRows float64
}

func (o Options) disabled(name string) bool {
	for _, d := range o.DisabledRules {
		if d == name {
			return true
		}
	}
	return false
}

// DefaultOptions enables fusion with a sane iteration cap.
func DefaultOptions() Options {
	return Options{EnableFusion: true, MaxIterations: 10}
}

// Trace records which rules changed the plan, in firing order, and what
// each fusion rule cost.
type Trace struct {
	Fired []string
	// Rules has one entry per enabled fusion rule, in the order they run.
	Rules []RuleStats
}

// RuleStats counts one fusion rule's work in an Optimize call.
type RuleStats struct {
	Name string
	// Attempts counts Apply calls: one per plan node per sweep.
	Attempts int
	// Firings counts Apply calls that rewrote the plan.
	Firings int
	// Time is the wall-clock time of the rule's sweeps.
	Time time.Duration
}

// Changed reports whether the named rule fired at least once.
func (t *Trace) Changed(name string) bool {
	for _, f := range t.Fired {
		if f == name {
			return true
		}
	}
	return false
}

// Any reports whether any fusion rule fired.
func (t *Trace) Any() bool { return len(t.Fired) > 0 }

// Optimize rewrites the plan under the given options and returns the new
// plan plus a trace of fusion-rule firings.
func Optimize(plan logical.Operator, opts Options) (logical.Operator, *Trace) {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 10
	}
	trace := &Trace{}

	plan = LowerDistinctAggregates(plan)
	plan = normalize(plan, opts.MaxIterations)

	if opts.EnableFusion {
		var fusionRules []core.Rule
		for _, r := range []core.Rule{
			core.UnionAllOnJoin{MinReuseRows: opts.MinReuseRows},
			core.UnionAllFusion{MinReuseRows: opts.MinReuseRows},
			core.GroupByJoinToWindow{MinReuseRows: opts.MinReuseRows},
			SemiJoinToDistinctJoin{},
			PushDistinctThroughJoin{},
			core.JoinOnKeys{MinReuseRows: opts.MinReuseRows},
		} {
			if !opts.disabled(r.Name()) {
				fusionRules = append(fusionRules, r)
			}
		}
		trace.Rules = make([]RuleStats, len(fusionRules))
		for i, r := range fusionRules {
			trace.Rules[i].Name = r.Name()
		}
		for iter := 0; iter < opts.MaxIterations; iter++ {
			changed := false
			for i, r := range fusionRules {
				var fired bool
				plan, fired = applyEverywhere(plan, r, &trace.Rules[i])
				if fired {
					trace.Fired = append(trace.Fired, r.Name())
					changed = true
					// Re-normalize so later rules see canonical shapes.
					plan = normalize(plan, opts.MaxIterations)
				}
			}
			if !changed {
				break
			}
		}
	}

	plan = normalize(plan, opts.MaxIterations)
	plan = PruneColumns(plan, opts.Required)
	plan = normalize(plan, opts.MaxIterations)
	return plan, trace
}

// applyEverywhere applies the rule top-down at every node until it no
// longer fires anywhere (bounded to avoid pathological loops), counting
// its work into st.
func applyEverywhere(plan logical.Operator, r core.Rule, st *RuleStats) (logical.Operator, bool) {
	start := time.Now()
	defer func() { st.Time += time.Since(start) }()
	firedAny := false
	for i := 0; i < 10; i++ {
		fired := false
		plan = logical.TransformDown(plan, func(op logical.Operator) logical.Operator {
			if fired {
				return op // one firing per sweep keeps rewrites predictable
			}
			st.Attempts++
			out, changed := r.Apply(op)
			if changed {
				st.Firings++
				fired = true
				return out
			}
			return op
		})
		if !fired {
			break
		}
		firedAny = true
	}
	return plan, firedAny
}

// normalize runs the classical cleanup rules to fixpoint. Each rule returns
// its input plan itself when it changes nothing, so the fixpoint is the
// round that leaves the root pointer unchanged.
func normalize(plan logical.Operator, maxIter int) logical.Operator {
	for i := 0; i < maxIter; i++ {
		before := plan
		plan = SimplifyExpressions(plan)
		plan = MergeFilters(plan)
		plan = PushDownPredicates(plan)
		plan = RemoveTrivialOperators(plan)
		if plan == before {
			break
		}
	}
	return plan
}
