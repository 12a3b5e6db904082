package cypher

import (
	"math"
	"sort"

	"chatiyp/internal/graph"
)

// This file is the aggregating projection. It streams: each input row
// is folded into its group's accumulators as it arrives, so the
// executor never holds the binding table, only one representative
// frame per group plus what each aggregate's final computation needs —
// a counter for count, the running best for min and max, and the
// non-null argument values in arrival order for sum, avg, stdev,
// percentileCont/Disc and collect, so those compute over every value
// of the group in arrival order. DISTINCT arguments are filtered on
// arrival.
//
// Errors surface in a fixed precedence: an upstream error, a
// cancellation or ErrTooManyRows (counted on input rows) wins; then
// the first grouping-key error in row order; then, group by group and
// item by item, each aggregate's first argument error ahead of its own
// computation error.

// aggSpec is the planned shape of an aggregating projection: which
// items are grouping keys, and the aggregate calls the other items
// reach, each of which gets one accumulator per group.
type aggSpec struct {
	keys  []int // indexes of the items without aggregates
	calls []*FuncCall
}

func planAggregation(items []*ReturnItem) *aggSpec {
	a := &aggSpec{}
	for i, it := range items {
		if containsAggregate(it.Expr) {
			a.collectCalls(it.Expr)
		} else {
			a.keys = append(a.keys, i)
		}
	}
	return a
}

// collectCalls records the aggregate calls finalization reaches in e,
// walking e exactly as evalAgg does.
func (a *aggSpec) collectCalls(e Expr) {
	if !containsAggregate(e) {
		return
	}
	switch x := e.(type) {
	case *FuncCall:
		if isAggregateFunc(x.Name) {
			a.calls = append(a.calls, x)
			return
		}
		for _, arg := range x.Args {
			a.collectCalls(arg)
		}
	case *Binary:
		a.collectCalls(x.Left)
		a.collectCalls(x.Right)
	case *Unary:
		a.collectCalls(x.Expr)
	case *IndexExpr:
		a.collectCalls(x.Subject)
	case *PropertyAccess:
		a.collectCalls(x.Subject)
	}
}

// aggGroup is one group: its first row, its row count (count(*)) and
// one accumulator per aggregate call.
type aggGroup struct {
	rep  Row // nil for the empty group of a pure aggregate over no rows
	rows int64
	accs []aggAcc
}

// aggAcc accumulates one aggregate call over one group.
type aggAcc struct {
	n    int64                 // non-null (and, under DISTINCT, distinct) arguments seen
	best graph.Value           // min, max
	vals []graph.Value         // every other aggregate
	seen *valueIndex[struct{}] // DISTINCT arguments seen
	err  error                 // first argument error, in row order
}

// aggState is the grouping table of one aggregation: its groups in
// first-seen order plus the input row count and the first grouping-key
// error.
type aggState struct {
	s       *stage
	groups  []aggGroup
	single  valueIndex[int]
	multi   map[string]int
	keyVals []graph.Value
	n       int // input rows
	keyErr  error
	accBuf  []aggAcc // slab of accumulators for new groups
	accRows int
}

func newAggState(s *stage) *aggState {
	return &aggState{s: s, keyVals: make([]graph.Value, len(s.agg.keys))}
}

// aggregate drains in and returns one projected row per group, in
// first-seen group order.
func aggregate(ctx *evalCtx, in rowIter, s *stage) ([]projected, error) {
	st := newAggState(s)
	for {
		if err := ctx.checkCancel(); err != nil {
			return nil, err
		}
		row, ok, err := in.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if st.n++; st.n > ctx.opts.MaxRows {
			return nil, ErrTooManyRows
		}
		st.add(ctx, row)
	}
	return st.finish(ctx)
}

// add folds one input row (the caller has counted it). After a
// grouping-key error the state only counts rows: the error surfaces
// once the input is drained, so an upstream error still wins.
func (st *aggState) add(ctx *evalCtx, row Row) {
	if st.keyErr != nil {
		return
	}
	spec := st.s.agg
	for i, ki := range spec.keys {
		v, err := ctx.eval(st.s.items[ki].Expr, row)
		if err != nil {
			st.keyErr = err
			return
		}
		st.keyVals[i] = v
	}
	gi, found := st.lookup(st.keyVals)
	if !found {
		st.newGroup(ctx.copyFrame(row)) // the input row may be lent
	}
	g := &st.groups[gi]
	g.rows++
	for ci, call := range spec.calls {
		g.accs[ci].add(ctx, call, row)
	}
}

// lookup finds the group of a key tuple; when there is none it
// reserves the next index, which the caller fills with newGroup.
func (st *aggState) lookup(keyVals []graph.Value) (int, bool) {
	switch len(keyVals) {
	case 0:
		return 0, len(st.groups) > 0
	case 1:
		return st.single.find(keyVals[0], len(st.groups))
	}
	if st.multi == nil {
		st.multi = map[string]int{}
	}
	key := graph.ValueKey(keyVals)
	if gi, found := st.multi[key]; found {
		return gi, true
	}
	st.multi[key] = len(st.groups)
	return len(st.groups), false
}

func (st *aggState) newGroup(rep Row) {
	k := len(st.s.agg.calls)
	if len(st.accBuf) < k {
		st.accRows = min(max(2*st.accRows, 4), maxSlabRows)
		st.accBuf = make([]aggAcc, k*st.accRows)
	}
	st.groups = append(st.groups, aggGroup{rep: rep, accs: st.accBuf[:k:k]})
	st.accBuf = st.accBuf[k:]
}

// finish computes one projected row per group.
func (st *aggState) finish(ctx *evalCtx) ([]projected, error) {
	if st.keyErr != nil {
		return nil, st.keyErr
	}
	spec, items := st.s.agg, st.s.items
	// A pure-aggregate projection over zero rows still yields one group
	// (count(*) over nothing is 0).
	if st.n == 0 && len(spec.keys) == 0 {
		st.newGroup(nil)
	}
	out := make([]projected, len(st.groups))
	var rows rowSlab
	for gi := range st.groups {
		g := &st.groups[gi]
		row := rows.alloc(len(items))
		for i, it := range items {
			var v graph.Value
			var err error
			if containsAggregate(it.Expr) {
				v, err = spec.evalAgg(ctx, it.Expr, g)
			} else {
				v, err = ctx.eval(it.Expr, g.rep)
			}
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out[gi] = projected{row: row}
	}
	return out, nil
}

// add folds one row's argument into the accumulator.
func (a *aggAcc) add(ctx *evalCtx, x *FuncCall, row Row) {
	if x.Star || len(x.Args) == 0 || a.err != nil {
		return
	}
	v, err := ctx.eval(x.Args[0], row)
	if err != nil {
		a.err = err
		return
	}
	if graph.KindOf(v) == graph.KindNull {
		return
	}
	if x.Distinct && !a.firstSeen(v) {
		return
	}
	switch x.Name {
	case "count":
	case "min":
		if a.n == 0 || graph.TotalLess(v, a.best) {
			a.best = v
		}
	case "max":
		if a.n == 0 || graph.TotalLess(a.best, v) {
			a.best = v
		}
	default:
		a.vals = append(a.vals, v)
	}
	a.n++
}

// firstSeen reports whether v is new to a DISTINCT accumulator, under
// graph.ValueKey equality.
func (a *aggAcc) firstSeen(v graph.Value) bool {
	if a.seen == nil {
		a.seen = &valueIndex[struct{}]{}
	}
	_, dup := a.seen.find(v, struct{}{})
	return !dup
}

// evalAgg evaluates an expression that contains aggregate function
// applications over a group: aggregate calls take their accumulated
// result, everything else is evaluated on the group's representative
// row (which, per Cypher grouping rules, is constant within the
// group).
func (a *aggSpec) evalAgg(ctx *evalCtx, e Expr, g *aggGroup) (graph.Value, error) {
	if !containsAggregate(e) {
		if g.rep == nil {
			return nil, nil
		}
		return ctx.eval(e, g.rep)
	}
	switch x := e.(type) {
	case *FuncCall:
		if isAggregateFunc(x.Name) {
			for i, c := range a.calls {
				if c == x {
					return g.accs[i].result(ctx, x, g)
				}
			}
			return nil, evalErrorf("internal: unplanned aggregate %s()", x.Name)
		}
		// Scalar function over aggregate arguments, e.g.
		// round(avg(p.percent)).
		args := make([]Expr, len(x.Args))
		for i, arg := range x.Args {
			v, err := a.evalAgg(ctx, arg, g)
			if err != nil {
				return nil, err
			}
			args[i] = valueExpr(v)
		}
		return ctx.evalFunc(&FuncCall{Name: x.Name, Args: args}, nil)
	case *Binary:
		lv, err := a.evalAgg(ctx, x.Left, g)
		if err != nil {
			return nil, err
		}
		rv, err := a.evalAgg(ctx, x.Right, g)
		if err != nil {
			return nil, err
		}
		return ctx.evalBinary(&Binary{Op: x.Op, Left: valueExpr(lv), Right: valueExpr(rv)}, nil)
	case *Unary:
		v, err := a.evalAgg(ctx, x.Expr, g)
		if err != nil {
			return nil, err
		}
		return ctx.evalUnary(&Unary{Op: x.Op, Expr: valueExpr(v)}, nil)
	case *IndexExpr:
		subj, err := a.evalAgg(ctx, x.Subject, g)
		if err != nil {
			return nil, err
		}
		ix := &IndexExpr{Subject: valueExpr(subj), Index: x.Index, To: x.To, IsSlice: x.IsSlice}
		return ctx.evalIndex(ix, g.rep)
	case *PropertyAccess:
		subj, err := a.evalAgg(ctx, x.Subject, g)
		if err != nil {
			return nil, err
		}
		return ctx.eval(&PropertyAccess{Subject: valueExpr(subj), Prop: x.Prop}, g.rep)
	}
	return nil, evalErrorf("unsupported aggregate expression shape %T", e)
}

// valueExpr wraps a computed value as a literal expression so partial
// aggregate results can flow back through the scalar evaluator. Values
// that are not literal kinds (nodes, lists) are carried via a sentinel
// literal understood by eval.
type boxedValue struct{ v graph.Value }

func (*boxedValue) exprNode() {}

func valueExpr(v graph.Value) Expr { return &boxedValue{v: v} }

// result computes the aggregate's value for its group.
func (a *aggAcc) result(ctx *evalCtx, x *FuncCall, g *aggGroup) (graph.Value, error) {
	if x.Star {
		if x.Name != "count" {
			return nil, evalErrorf("%s(*) is not supported", x.Name)
		}
		return g.rows, nil
	}
	if len(x.Args) == 0 {
		return nil, evalErrorf("%s() requires an argument", x.Name)
	}
	if a.err != nil {
		return nil, a.err
	}
	vals := a.vals
	switch x.Name {
	case "count":
		return a.n, nil
	case "min", "max":
		if a.n == 0 {
			return nil, nil
		}
		return a.best, nil
	case "collect":
		if vals == nil {
			vals = []graph.Value{}
		}
		return vals, nil
	case "sum":
		return sumValues(vals)
	case "avg":
		if len(vals) == 0 {
			return nil, nil
		}
		s, err := sumValues(vals)
		if err != nil {
			return nil, err
		}
		f, _ := graph.AsFloat(s)
		return f / float64(len(vals)), nil
	case "stdev":
		if len(vals) < 2 {
			return float64(0), nil
		}
		fs, err := toFloats(vals)
		if err != nil {
			return nil, err
		}
		mean := 0.0
		for _, f := range fs {
			mean += f
		}
		mean /= float64(len(fs))
		ss := 0.0
		for _, f := range fs {
			d := f - mean
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(fs)-1)), nil
	case "percentilecont", "percentiledisc":
		if len(x.Args) != 2 {
			return nil, evalErrorf("%s() expects 2 arguments", x.Name)
		}
		if len(vals) == 0 {
			return nil, nil
		}
		pv, err := ctx.eval(x.Args[1], g.rep)
		if err != nil {
			return nil, err
		}
		p, ok := graph.AsFloat(pv)
		if !ok || p < 0 || p > 1 {
			return nil, evalErrorf("%s() percentile must be in [0,1]", x.Name)
		}
		fs, err := toFloats(vals)
		if err != nil {
			return nil, err
		}
		sort.Float64s(fs)
		if x.Name == "percentiledisc" {
			idx := int(math.Ceil(p*float64(len(fs)))) - 1
			if idx < 0 {
				idx = 0
			}
			return fs[idx], nil
		}
		if len(fs) == 1 {
			return fs[0], nil
		}
		pos := p * float64(len(fs)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		return fs[lo]*(1-frac) + fs[hi]*frac, nil
	}
	return nil, evalErrorf("unknown aggregate %s()", x.Name)
}

// valueIndex maps values to V under graph.ValueKey equality — the
// equality grouping and DISTINCT use — without building key strings
// for the common kinds: nodes by ID, strings by content, and numbers
// by float64 value (ValueKey formats an integer as a float, so an int
// and an equal float share a key). Negative zero and NaN, where
// float64 equality and their formatted keys disagree, take the string
// path with every other kind. Grouping maps values to group indexes;
// a DISTINCT filter is a set (V = struct{}).
type valueIndex[V any] struct {
	nodes map[int64]V
	strs  map[string]V
	nums  map[float64]V
	keys  map[string]V
}

// find returns the V stored for v and true when an equal value was
// indexed before; otherwise it stores next for v and returns next and
// false.
func (ix *valueIndex[V]) find(v graph.Value, next V) (V, bool) {
	switch x := v.(type) {
	case *graph.Node:
		return findOrAdd(&ix.nodes, x.ID, next)
	case string:
		return findOrAdd(&ix.strs, x, next)
	case int64:
		return findOrAdd(&ix.nums, float64(x), next)
	case float64:
		if !math.IsNaN(x) && !(x == 0 && math.Signbit(x)) {
			return findOrAdd(&ix.nums, x, next)
		}
	}
	return findOrAdd(&ix.keys, graph.ValueKey(v), next)
}

func findOrAdd[K comparable, V any](m *map[K]V, k K, next V) (V, bool) {
	if *m == nil {
		*m = make(map[K]V)
	}
	if i, ok := (*m)[k]; ok {
		return i, true
	}
	(*m)[k] = next
	return next, false
}

func sumValues(vals []graph.Value) (graph.Value, error) {
	allInt := true
	var fi int64
	var ff float64
	for _, v := range vals {
		switch n := v.(type) {
		case int64:
			fi += n
			ff += float64(n)
		case float64:
			allInt = false
			ff += n
		default:
			return nil, evalErrorf("sum() over non-number %T", v)
		}
	}
	if allInt {
		return fi, nil
	}
	return ff, nil
}

func toFloats(vals []graph.Value) ([]float64, error) {
	out := make([]float64, len(vals))
	for i, v := range vals {
		f, ok := graph.AsFloat(v)
		if !ok {
			return nil, evalErrorf("numeric aggregate over non-number %T", v)
		}
		out[i] = f
	}
	return out, nil
}
