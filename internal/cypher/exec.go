package cypher

import (
	"context"
	"errors"
	"sort"

	"chatiyp/internal/graph"
)

// This file is the package's execution entry points. There is one
// executor: every query — reads and writes alike — is planned into
// the operator pipeline of stages.go, and Execute builds the query's
// Stream (stream_api.go) and drains it into a Result. The ORDER BY
// helpers below are shared by the serial operators and the parallel
// morsel workers.

// Options tunes query execution.
type Options struct {
	// MaxRows caps the rows a blocking operator (sort, aggregation,
	// write barrier) holds at once; exceeding it aborts the query with
	// ErrTooManyRows. Streaming operators hold one row at a time and
	// need no cap. Zero means the default of 1,000,000.
	MaxRows int
	// MaxVarLength caps unbounded variable-length patterns ([*..]).
	// Zero means the default of 6.
	MaxVarLength int
	// DisableIndexes forces label scans even when a property index
	// exists. Used by the index-ablation benchmark.
	DisableIndexes bool
	// RowLimit caps the number of result rows returned to the caller.
	// When the cap cuts rows off, Result.Truncated is set instead of
	// returning an error, and the executor stops pulling — an unbounded
	// scan behind a capped query does not run to completion. The writes
	// of a write query all apply regardless. Zero means unlimited.
	RowLimit int
	// MaxParallelism caps morsel-driven intra-query parallelism: how
	// many workers one read-only query may fan its anchor scan out to
	// (see parallel.go and docs/CONCURRENCY.md). Zero means GOMAXPROCS;
	// 1 disables intra-query parallelism.
	MaxParallelism int
	// ParallelMorselSize is the anchor-candidate ID-range chunk handed
	// to one worker per dispatch. Zero means the default of 128.
	ParallelMorselSize int
	// ParallelThreshold is the minimum anchor cardinality before the
	// planner picks the parallel path — below it, fan-out overhead
	// exceeds the win. Zero means the default of 256; negative forces
	// the parallel path regardless of cardinality (the equivalence
	// suites use this to exercise the morsel machinery on tiny graphs).
	ParallelThreshold int
}

func (o Options) withDefaults() Options {
	if o.MaxRows == 0 {
		o.MaxRows = 1_000_000
	}
	if o.MaxVarLength == 0 {
		o.MaxVarLength = 6
	}
	return o
}

// ErrTooManyRows aborts queries whose intermediate results exceed
// Options.MaxRows.
var ErrTooManyRows = errors.New("cypher: intermediate result exceeds row limit")

// WriteStats counts the side effects of write clauses.
type WriteStats struct {
	NodesCreated         int
	NodesDeleted         int
	RelationshipsCreated int
	RelationshipsDeleted int
	PropertiesSet        int
	LabelsAdded          int
	LabelsRemoved        int
}

// Changed reports whether any write happened.
func (s WriteStats) Changed() bool {
	return s != WriteStats{}
}

// Result is the outcome of executing a query: named columns, rows of
// values, and write statistics. Truncated reports that Options.RowLimit
// cut the result off before the query's natural end.
type Result struct {
	Columns   []string
	Rows      [][]graph.Value
	Stats     WriteStats
	Truncated bool
}

// Value returns the single value of a single-row single-column result,
// which is the common shape for the IYP benchmark's answers. ok is false
// when the result is not exactly 1x1.
func (r *Result) Value() (graph.Value, bool) {
	if len(r.Rows) == 1 && len(r.Rows[0]) == 1 {
		return r.Rows[0][0], true
	}
	return nil, false
}

// Execute parses and runs a query with default options.
func Execute(g *graph.Graph, src string, params map[string]any) (*Result, error) {
	return ExecuteWith(g, src, params, Options{})
}

// ExecuteContext parses and runs a query with default options under a
// cancellation context: when ctx is canceled or its deadline expires,
// execution aborts early (within one check interval, see
// cancelCheckInterval) with an error matching ErrCanceled.
func ExecuteContext(ctx context.Context, g *graph.Graph, src string, params map[string]any) (*Result, error) {
	return ExecuteWithContext(ctx, g, src, params, Options{})
}

// ExecuteWith parses and runs a query with explicit options.
func ExecuteWith(g *graph.Graph, src string, params map[string]any, opts Options) (*Result, error) {
	return ExecuteWithContext(context.Background(), g, src, params, opts)
}

// ExecuteWithContext parses and runs a query with explicit options
// under a cancellation context (see ExecuteContext).
func ExecuteWithContext(ctx context.Context, g *graph.Graph, src string, params map[string]any, opts Options) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ExecuteQueryContext(ctx, g, q, params, opts)
}

// ExecuteQuery runs a pre-parsed query, including any UNION parts. The
// query is planned on every call; use Prepare / PlanCache to plan once
// and execute many times.
func ExecuteQuery(g *graph.Graph, q *Query, params map[string]any, opts Options) (*Result, error) {
	return executeQueryPlanned(context.Background(), g, q, nil, params, opts)
}

// ExecuteQueryContext runs a pre-parsed query under a cancellation
// context (see ExecuteContext).
func ExecuteQueryContext(ctx context.Context, g *graph.Graph, q *Query, params map[string]any, opts Options) (*Result, error) {
	return executeQueryPlanned(ctx, g, q, nil, params, opts)
}

// executeQueryPlanned runs a query with an optional pre-built plan (nil
// means plan now): it builds the query's Stream and drains it into a
// Result.
func executeQueryPlanned(ctx context.Context, g *graph.Graph, q *Query, plan *queryPlan, params map[string]any, opts Options) (*Result, error) {
	st, err := executeQueryStream(ctx, g, q, plan, params, opts)
	if err != nil {
		return nil, err
	}
	return st.drain()
}

// projected carries one output row plus its source row for ORDER BY
// scoping (underlying variables remain visible when no aggregation
// collapsed them).
type projected struct {
	row    Row // projected values in column order
	source Row // the input frame; nil when aggregation/distinct severed the source scope
}

// orderSpec is one projection's planned ORDER BY: the sort items, the
// projected column each item names (-1 when it is an expression over
// the scope), and the slots of the projected columns, from which the
// scope frame is rebuilt.
type orderSpec struct {
	items    []*SortItem
	cols     []int
	colSlots []int
}

// newOrderSpec resolves ORDER BY items against the projected columns.
// An item that textually matches a column (alias or identical
// expression) sorts on the projected value — this is what makes
// RETURN DISTINCT c.x ORDER BY c.x legal after the underlying scope is
// severed.
func newOrderSpec(items []*SortItem, cols []string, colSlots []int) *orderSpec {
	o := &orderSpec{items: items, cols: make([]int, len(items)), colSlots: colSlots}
	for j, si := range items {
		o.cols[j] = -1
		name := ExprString(si.Expr)
		for i, c := range cols {
			if c == name {
				o.cols[j] = i
				break
			}
		}
	}
	return o
}

// keysFor computes the ORDER BY key tuple of one projected row into
// keys. Items that are not columns evaluate against the projected
// values overlaid on the source row when the source scope survived
// projection; *scope is the scratch frame that overlay is built in.
func (o *orderSpec) keysFor(ctx *evalCtx, pr projected, keys []graph.Value, scope *Row) error {
	built := false
	for j, si := range o.items {
		if c := o.cols[j]; c >= 0 {
			keys[j] = pr.row[c]
			continue
		}
		if !built {
			if *scope == nil {
				*scope = make(Row, ctx.width)
			}
			sc := *scope
			n := copy(sc, pr.source)
			sc[n:].unbindAll()
			for i, s := range o.colSlots {
				sc[s] = pr.row[i]
			}
			built = true
		}
		v, err := ctx.eval(si.Expr, *scope)
		if err != nil {
			return err
		}
		keys[j] = v
	}
	return nil
}

// sortRows stable-sorts rows in place on the ORDER BY keys.
func (o *orderSpec) sortRows(ctx *evalCtx, rows []projected) error {
	nk := len(o.items)
	ks := make([]keyedRow, len(rows))
	keys := make([]graph.Value, len(rows)*nk)
	var scope Row
	for i, pr := range rows {
		k := keys[i*nk : (i+1)*nk : (i+1)*nk]
		if err := o.keysFor(ctx, pr, k, &scope); err != nil {
			return err
		}
		ks[i] = keyedRow{pr: pr, keys: k}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, si := range o.items {
			ka, kb := ks[a].keys[j], ks[b].keys[j]
			if graph.TotalLess(ka, kb) {
				return !si.Desc
			}
			if graph.TotalLess(kb, ka) {
				return si.Desc
			}
		}
		return false
	})
	for i := range ks {
		rows[i] = ks[i].pr
	}
	return nil
}
