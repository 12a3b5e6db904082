package cypher

import (
	"fmt"
	"sort"
)

// This file builds the logical operator tree ("stages") of a query
// part: the Volcano-style pipeline the executor pulls rows through.
// Each stage is one operator with a single input; the chain runs seed
// → match/unwind/write → (pushed limit) → project/aggregate → distinct
// → sort/top-k → skip → limit. Planning is static: star expansion,
// column naming, pushdown decisions and the parallel prefix are all
// derived from the AST and the variable scope, never from data.
//
// Every query runs on this pipeline. A write clause (CREATE, MERGE,
// SET, REMOVE, DELETE) is a barrier stage: it drains its whole input,
// bounded by Options.MaxRows, before it applies the first write, so
// every later stage sees all of the clause's writes — the
// clause-at-a-time semantics openCypher specifies.

// stageKind enumerates the logical operators.
type stageKind int

const (
	stageSeed     stageKind = iota // yields one empty row
	stageMatch                     // pattern match over the graph, incl. WHERE
	stageUnwind                    // list expansion
	stageFilter                    // WITH ... WHERE predicate
	stageProject                   // projection (plain or aggregating)
	stageDistinct                  // first-occurrence dedup of projected rows
	stageSort                      // full stable sort (blocking)
	stageTopK                      // bounded heap for ORDER BY ... LIMIT
	stageSkip                      // drop the first SKIP rows
	stageLimit                     // cap rows; `pushed` means below projection
	stageWrite                     // write clause barrier (CREATE, MERGE, SET, REMOVE, DELETE)
)

// stage is one logical operator node. Exactly one of the payload
// groups is meaningful, per kind.
type stage struct {
	kind  stageKind
	input *stage

	// stageMatch
	match    *MatchClause
	hints    matchHints
	newSlots []int // the slots the patterns bind (OPTIONAL MATCH nulls them)

	// stageUnwind
	unwind *UnwindClause

	// stageFilter
	cond Expr

	// stageWrite
	write Clause

	// stageProject
	items    []*ReturnItem // star-expanded
	cols     []string
	colSlots []int // the frame slot of each column
	hasAgg   bool
	agg      *aggSpec // when hasAgg
	final    bool     // RETURN (vs WITH)

	// stageSort / stageTopK
	order *orderSpec

	// stageTopK / stageSkip / stageLimit — row-independent expressions,
	// evaluated once per execution.
	skipE  Expr
	limitE Expr
	pushed bool // stageLimit hoisted below the projection
}

// stagePlan is the operator pipeline of one single-part query, rooted
// at the output end (pull from root, data flows from the seed).
type stagePlan struct {
	root *stage
	cols []string // RETURN column names; nil when the part has no RETURN
	// par is the statically-eligible parallel prefix of the chain, or
	// nil; whether an execution actually engages it is a per-run
	// cardinality decision (see parallel.go).
	par *parallelSegment
}

// buildStages derives the operator pipeline for one query part. l is
// the query's slot layout and hints the per-MATCH index analysis
// planInto already performed for this plan. A part without RETURN (a
// write query) yields no columns: its rows are pulled, so its writes
// apply, and then dropped.
func buildStages(q *Query, l *slotLayout, hints map[*MatchClause]matchHints) (*stagePlan, error) {
	root := &stage{kind: stageSeed}
	var scope []string
	addScope := func(names ...string) {
		for _, n := range names {
			if n == "" {
				continue
			}
			found := false
			for _, s := range scope {
				if s == n {
					found = true
					break
				}
			}
			if !found {
				scope = append(scope, n)
			}
		}
	}
	for i, cl := range q.Clauses {
		switch x := cl.(type) {
		case *MatchClause:
			vars := patternVars(x.Patterns)
			slots := make([]int, len(vars))
			for i, v := range vars {
				slots[i] = l.slot(v)
			}
			root = &stage{kind: stageMatch, input: root, match: x, hints: hints[x], newSlots: slots}
			addScope(vars...)
		case *UnwindClause:
			root = &stage{kind: stageUnwind, input: root, unwind: x}
			addScope(x.Alias)
		case *WithClause:
			proj, cols, err := buildProjection(root, l, scope, x.Items, x.Distinct, x.OrderBy, x.Skip, x.Limit, false)
			if err != nil {
				return nil, err
			}
			root = proj
			scope = cols
			if x.Where != nil {
				root = &stage{kind: stageFilter, input: root, cond: x.Where}
			}
		case *ReturnClause:
			if i != len(q.Clauses)-1 {
				return nil, evalErrorf("clause after RETURN")
			}
			proj, cols, err := buildProjection(root, l, scope, x.Items, x.Distinct, x.OrderBy, x.Skip, x.Limit, true)
			if err != nil {
				return nil, err
			}
			return &stagePlan{root: proj, cols: cols}, nil
		case *CreateClause:
			root = &stage{kind: stageWrite, input: root, write: x}
			addScope(patternVars(x.Patterns)...)
		case *MergeClause:
			root = &stage{kind: stageWrite, input: root, write: x}
			addScope(patternVars([]*Pattern{x.Pattern})...)
		case *SetClause, *RemoveClause, *DeleteClause:
			root = &stage{kind: stageWrite, input: root, write: x}
		default:
			return nil, evalErrorf("unsupported clause %T", cl)
		}
	}
	return &stagePlan{root: root}, nil
}

// buildProjection assembles the projection chain of one WITH/RETURN:
// (pushed limit) → project → distinct → sort|top-k → skip → limit. It
// errs when the items expand to nothing.
func buildProjection(input *stage, l *slotLayout, scope []string, items []*ReturnItem, distinct bool,
	orderBy []*SortItem, skipE, limitE Expr, final bool) (*stage, []string, error) {
	expanded, cols := expandItems(items, scope, l)
	if len(expanded) == 0 {
		return nil, nil, evalErrorf("nothing to project")
	}
	hasAgg := false
	for _, it := range expanded {
		if containsAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	// LIMIT pushdown: with no ORDER BY, DISTINCT or aggregation the
	// projection is row-for-row, so the cap can run below it and stop
	// the upstream scan after SKIP+LIMIT source rows.
	pushedLimit := limitE != nil && len(orderBy) == 0 && !distinct && !hasAgg
	if pushedLimit {
		input = &stage{kind: stageLimit, input: input, skipE: skipE, limitE: limitE, pushed: true}
	}
	colSlots := make([]int, len(cols))
	for i, c := range cols {
		colSlots[i] = l.slot(c)
	}
	root := &stage{kind: stageProject, input: input, items: expanded, cols: cols, colSlots: colSlots,
		hasAgg: hasAgg, final: final}
	if hasAgg {
		root.agg = planAggregation(expanded)
	}
	if distinct {
		root = &stage{kind: stageDistinct, input: root}
	}
	var order *orderSpec
	if len(orderBy) > 0 {
		order = newOrderSpec(orderBy, cols, colSlots)
	}
	switch {
	case len(orderBy) > 0 && limitE != nil:
		// Bounded top-k replaces full-sort-then-slice; keeps SKIP+LIMIT
		// rows with ties resolved exactly as the stable sort would.
		root = &stage{kind: stageTopK, input: root, order: order, skipE: skipE, limitE: limitE}
		if skipE != nil {
			root = &stage{kind: stageSkip, input: root, skipE: skipE}
		}
	case len(orderBy) > 0:
		root = &stage{kind: stageSort, input: root, order: order}
		if skipE != nil {
			root = &stage{kind: stageSkip, input: root, skipE: skipE}
		}
	default:
		if skipE != nil {
			root = &stage{kind: stageSkip, input: root, skipE: skipE}
		}
		// A pushed limit already capped the source at SKIP+LIMIT rows,
		// so after SKIP no post-projection limit is needed. DISTINCT or
		// aggregation blocks the pushdown, and the cap must then run
		// here, above them.
		if limitE != nil && !pushedLimit {
			root = &stage{kind: stageLimit, input: root, limitE: limitE}
		}
	}
	return root, cols, nil
}

// expandItems performs RETURN * expansion against the static scope and
// derives the output column names.
func expandItems(items []*ReturnItem, scope []string, l *slotLayout) ([]*ReturnItem, []string) {
	var expanded []*ReturnItem
	for _, it := range items {
		if !it.Star {
			expanded = append(expanded, it)
			continue
		}
		scoped := append([]string(nil), scope...)
		sort.Strings(scoped)
		for _, name := range scoped {
			expanded = append(expanded, &ReturnItem{Expr: &Variable{Name: name, slot: l.slot(name)}, Alias: name})
		}
	}
	cols := make([]string, len(expanded))
	seen := map[string]bool{}
	for i, it := range expanded {
		name := it.Name()
		if seen[name] {
			name = fmt.Sprintf("%s_%d", name, i)
		}
		seen[name] = true
		cols[i] = name
	}
	return expanded, cols
}
