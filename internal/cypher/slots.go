package cypher

import (
	"chatiyp/internal/graph"
)

// This file gives every name a query binds a slot in a fixed-width
// frame. Parse runs resolveSlots once per query text: it numbers every
// variable, pattern variable, path variable, UNWIND alias,
// comprehension variable and projected column name, and writes each
// slot into the AST node that names it. A binding-table row is then a
// []graph.Value indexed by those slots: binding a variable is a slice
// store and copying a row is one copy() of a few words.
//
// One layout covers the whole query, UNION parts included: a name has
// the same slot wherever it appears, and every frame has a slot for
// every name.
//
// Scoping is dynamic: a slot holding the unbound marker has no
// binding, which is distinct from a binding to null, and evaluating a
// variable whose slot is unbound fails with "variable `x` not
// defined". A WITH starts its output frame with every slot unbound
// except its columns, which is what scope severing means.

// Row is one binding-table row: a frame of values indexed by slot.
// Frames handed between operators are owned by the receiver.
type Row []graph.Value

// unboundValue marks a frame slot that holds no binding. It never
// leaves the executor: evaluating an unbound variable is an error.
type unboundValue struct{}

var unbound graph.Value = unboundValue{}

// get returns the value bound at slot; ok is false when the slot is
// unbound or lies past the end of a short frame (the empty frame SKIP
// and LIMIT expressions evaluate against binds nothing).
func (r Row) get(slot int) (graph.Value, bool) {
	if slot < 0 || slot >= len(r) {
		return nil, false
	}
	v := r[slot]
	if _, isUnbound := v.(unboundValue); isUnbound {
		return nil, false
	}
	return v, true
}

// bound reports whether slot holds a binding.
func (r Row) bound(slot int) bool {
	_, ok := r.get(slot)
	return ok
}

// unbindAll marks every slot unbound.
func (r Row) unbindAll() {
	for i := range r {
		r[i] = unbound
	}
}

// slotLayout maps the names of one query to frame slots. It is built
// by resolveSlots while parsing and never changes afterwards, so every
// plan and execution of the query shares it without locking.
type slotLayout struct {
	index  map[string]int
	frozen bool // set once the layout is built
}

// slot returns the slot of name, assigning the next free one while the
// layout is being built. The empty name (an anonymous pattern element)
// has no slot, and neither has a name a frozen layout never saw.
func (l *slotLayout) slot(name string) int {
	if name == "" {
		return -1
	}
	if s, ok := l.index[name]; ok {
		return s
	}
	if l.frozen {
		return -1
	}
	s := len(l.index)
	l.index[name] = s
	return s
}

// width is the number of slots in a frame: every name of the query.
func (l *slotLayout) width() int { return len(l.index) }

// resolveSlots builds the slot layout of a parsed query and writes the
// slots into its AST. Projection column names come from a buildStages
// pass like the one that plans the query, so the planner finds every
// column it derives already numbered.
func resolveSlots(q *Query) *slotLayout {
	l := &slotLayout{index: map[string]int{}}
	for _, part := range append([]*Query{q}, unionQueries(q)...) {
		for _, cl := range part.Clauses {
			l.clause(cl)
		}
		// Errors are the planner's to report; a part that fails here
		// fails identically when it is planned.
		_, _ = buildStages(part, l, nil)
	}
	l.frozen = true
	return l
}

func (l *slotLayout) clause(cl Clause) {
	switch x := cl.(type) {
	case *MatchClause:
		for _, p := range x.Patterns {
			l.pattern(p)
		}
		l.expr(x.Where)
	case *UnwindClause:
		l.expr(x.Expr)
		x.slot = l.slot(x.Alias)
	case *WithClause:
		l.projection(x.Items, x.OrderBy, x.Skip, x.Limit)
		l.expr(x.Where)
	case *ReturnClause:
		l.projection(x.Items, x.OrderBy, x.Skip, x.Limit)
	case *CreateClause:
		for _, p := range x.Patterns {
			l.pattern(p)
		}
	case *MergeClause:
		l.pattern(x.Pattern)
		l.setItems(x.OnCreateSet)
		l.setItems(x.OnMatchSet)
	case *SetClause:
		l.setItems(x.Items)
	case *RemoveClause:
		for _, it := range x.Items {
			it.slot = l.slot(it.Var)
		}
	case *DeleteClause:
		for _, e := range x.Exprs {
			l.expr(e)
		}
	}
}

// projection numbers the names a projection's items, ORDER BY, SKIP
// and LIMIT mention.
func (l *slotLayout) projection(items []*ReturnItem, orderBy []*SortItem, skip, limit Expr) {
	for _, it := range items {
		l.expr(it.Expr)
	}
	for _, si := range orderBy {
		l.expr(si.Expr)
	}
	l.expr(skip)
	l.expr(limit)
}

func (l *slotLayout) setItems(items []*SetItem) {
	for _, it := range items {
		it.slot = l.slot(it.Var)
		l.expr(it.Expr)
	}
}

func (l *slotLayout) pattern(p *Pattern) {
	p.pathSlot = l.slot(p.PathVar)
	for _, np := range p.Nodes {
		np.slot = l.slot(np.Var)
		for _, e := range np.Props {
			l.expr(e)
		}
	}
	for _, rp := range p.Rels {
		rp.slot = l.slot(rp.Var)
		for _, e := range rp.Props {
			l.expr(e)
		}
	}
}

func (l *slotLayout) expr(e Expr) {
	switch x := e.(type) {
	case *Variable:
		x.slot = l.slot(x.Name)
	case *PropertyAccess:
		l.expr(x.Subject)
	case *ListLiteral:
		for _, el := range x.Elems {
			l.expr(el)
		}
	case *MapLiteral:
		for _, el := range x.Elems {
			l.expr(el)
		}
	case *IndexExpr:
		l.expr(x.Subject)
		l.expr(x.Index)
		l.expr(x.To)
	case *Unary:
		l.expr(x.Expr)
	case *Binary:
		l.expr(x.Left)
		l.expr(x.Right)
	case *IsNull:
		l.expr(x.Expr)
	case *FuncCall:
		for _, a := range x.Args {
			l.expr(a)
		}
	case *CaseExpr:
		l.expr(x.Subject)
		for i := range x.Whens {
			l.expr(x.Whens[i])
			l.expr(x.Thens[i])
		}
		l.expr(x.Else)
	case *ListComprehension:
		x.slot = l.slot(x.Var)
		l.expr(x.List)
		l.expr(x.Where)
		l.expr(x.Proj)
	case *QuantifiedExpr:
		x.slot = l.slot(x.Var)
		l.expr(x.List)
		l.expr(x.Where)
	case *ExistsExpr:
		if x.Pattern != nil {
			l.pattern(x.Pattern)
		}
		l.expr(x.Prop)
	case *PatternExpr:
		l.pattern(x.Pattern)
	}
}

// maxSlabRows caps how many rows one backing array holds. A slab
// starts small and doubles up to the cap, so a point lookup pays for a
// few rows and a long stream of rows costs one allocation per
// maxSlabRows rows.
const maxSlabRows = 64

// rowSlab carves fixed-width rows out of shared backing arrays. Each
// row is capped at its width, so the rows of one slab never overlap.
// A slab belongs to one goroutine.
type rowSlab struct {
	buf  Row
	rows int // rows in the last backing array
	// A rewindable slab keeps every backing array it made (arrays) and
	// the index of the next one to reuse; other slabs keep none, so the
	// rows a stream has moved past can be collected.
	rewindable bool
	arrays     []Row
	next       int
}

func (s *rowSlab) alloc(width int) Row {
	if len(s.buf) < width {
		if s.next < len(s.arrays) && len(s.arrays[s.next]) >= width {
			s.buf = s.arrays[s.next]
		} else {
			s.rows = min(max(2*s.rows, 4), maxSlabRows)
			s.buf = make(Row, width*s.rows)
			if s.rewindable {
				s.arrays = append(s.arrays[:s.next], s.buf)
			}
		}
		s.next++
	}
	r := s.buf[:width:width]
	s.buf = s.buf[width:]
	return r
}

// rewind makes a rewindable slab hand out its backing arrays again
// from the start. Only a caller that knows every row it handed out is
// dead may rewind: a morsel worker between morsels whose rows it
// copied out or dropped.
func (s *rowSlab) rewind() {
	s.rewindable = true
	s.buf, s.next = nil, 0
}

// newFrame returns a pipeline frame with every slot unbound.
func (c *evalCtx) newFrame() Row {
	f := c.frames.alloc(c.width)
	f.unbindAll()
	return f
}

// copyFrame returns a fresh frame holding src's bindings.
func (c *evalCtx) copyFrame(src Row) Row {
	f := c.frames.alloc(c.width)
	n := copy(f, src)
	f[n:].unbindAll()
	return f
}
