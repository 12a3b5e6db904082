package cypher

import (
	"errors"

	"chatiyp/internal/graph"
)

// writeIter runs one write clause (CREATE, MERGE, SET, REMOVE, DELETE)
// as a barrier stage. On its first pull it drains its whole input,
// bounded by Options.MaxRows, and only then applies the clause to
// every row, so later stages — including a later MATCH reading the
// live graph — see all of the clause's writes. The rows it then yields
// are its input rows, extended with the variables CREATE and MERGE
// bind.
type writeIter struct {
	se    *streamExec
	cl    Clause
	input rowIter

	rows []Row // the drained input, then the clause's output
	pos  int
	done bool
}

func (w *writeIter) Next() (Row, bool, error) {
	if !w.done {
		if err := w.run(); err != nil {
			return nil, false, err
		}
	}
	if w.pos >= len(w.rows) {
		return nil, false, nil
	}
	row := w.rows[w.pos]
	w.pos++
	return row, true, nil
}

// run drains the input and applies the clause. Cancellation is checked
// while draining and once before the first write, never between the
// writes of one clause, so a canceled query never half-applies a
// clause.
func (w *writeIter) run() error {
	rows, err := drainRows(w.se.ctx, w.input, w.se.ctx.opts.MaxRows)
	if err != nil {
		return err
	}
	if err := w.se.ctx.pollCancel(); err != nil {
		return err
	}
	w.rows = rows
	switch x := w.cl.(type) {
	case *CreateClause:
		err = w.execCreate(x)
	case *MergeClause:
		err = w.execMerge(x)
	case *SetClause:
		err = w.execSet(x.Items)
	case *RemoveClause:
		err = w.execRemove(x)
	case *DeleteClause:
		err = w.execDelete(x)
	}
	if err != nil {
		return err
	}
	// MERGE can yield several rows per input row.
	if len(w.rows) > w.se.ctx.opts.MaxRows {
		return ErrTooManyRows
	}
	w.done = true
	w.se.barriersRun++
	return nil
}

// drainRows pulls an iterator to exhaustion, erroring past maxRows —
// the memory bound on a write barrier's input. ctx polls for
// cancellation per drained row, so a barrier over an unbounded scan
// still aborts promptly.
func drainRows(ctx *evalCtx, it rowIter, maxRows int) ([]Row, error) {
	var rows []Row
	for {
		if err := ctx.checkCancel(); err != nil {
			return nil, err
		}
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, row)
		if len(rows) > maxRows {
			return nil, ErrTooManyRows
		}
	}
}

// execCreate instantiates each pattern once per binding row, reusing
// bound endpoint variables and creating everything unbound.
func (w *writeIter) execCreate(c *CreateClause) error {
	for _, pat := range c.Patterns {
		for _, r := range pat.Rels {
			if r.VarLength != nil {
				return evalErrorf("CREATE cannot use variable-length relationships")
			}
			if r.Direction == DirBoth {
				return evalErrorf("CREATE requires a directed relationship")
			}
		}
	}
	for _, row := range w.rows {
		for _, pat := range c.Patterns {
			if err := w.createPattern(pat, row); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *writeIter) createPattern(pat *Pattern, row Row) error {
	nodes := make([]*graph.Node, len(pat.Nodes))
	for i, np := range pat.Nodes {
		n, err := w.resolveOrCreateNode(np, row)
		if err != nil {
			return err
		}
		nodes[i] = n
	}
	for i, rp := range pat.Rels {
		props, err := w.evalPropMap(rp.Props, row)
		if err != nil {
			return err
		}
		if len(rp.Types) != 1 {
			return evalErrorf("CREATE requires exactly one relationship type")
		}
		start, end := nodes[i], nodes[i+1]
		if rp.Direction == DirLeft {
			start, end = end, start
		}
		r, err := w.se.ctx.g.CreateRelationship(start.ID, end.ID, rp.Types[0], props)
		if err != nil {
			return err
		}
		w.se.stats.RelationshipsCreated++
		w.se.stats.PropertiesSet += len(props)
		if rp.slot >= 0 {
			row[rp.slot] = r
		}
	}
	if pat.pathSlot >= 0 {
		row[pat.pathSlot] = graph.Path{Nodes: nodes}
	}
	return nil
}

func (w *writeIter) resolveOrCreateNode(np *NodePattern, row Row) (*graph.Node, error) {
	if v, bound := row.get(np.slot); bound {
		n, ok := v.(*graph.Node)
		if !ok {
			return nil, evalErrorf("variable `%s` is not a node", np.Var)
		}
		if len(np.Labels) > 0 || len(np.Props) > 0 {
			return nil, evalErrorf("cannot add labels or properties to bound variable `%s` in CREATE", np.Var)
		}
		return n, nil
	}
	props, err := w.evalPropMap(np.Props, row)
	if err != nil {
		return nil, err
	}
	n, err := w.se.ctx.g.CreateNode(np.Labels, props)
	if err != nil {
		return nil, err
	}
	w.se.stats.NodesCreated++
	w.se.stats.PropertiesSet += len(props)
	w.se.stats.LabelsAdded += len(np.Labels)
	if np.slot >= 0 {
		row[np.slot] = n
	}
	return n, nil
}

func (w *writeIter) evalPropMap(props map[string]Expr, row Row) (map[string]any, error) {
	out := make(map[string]any, len(props))
	for k, e := range props {
		v, err := w.se.ctx.eval(e, row)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// execMerge matches the pattern per row; on no match it creates the
// whole pattern (Neo4j semantics for a fully-unbound MERGE pattern).
func (w *writeIter) execMerge(m *MergeClause) error {
	for _, r := range m.Pattern.Rels {
		if r.VarLength != nil {
			return evalErrorf("MERGE cannot use variable-length relationships")
		}
	}
	var out []Row
	for _, row := range w.rows {
		var matches []Row
		err := newMatcher(w.se.ctx, nil).match(m.Pattern, row, func(r Row) bool {
			matches = append(matches, w.se.ctx.copyFrame(r))
			return true
		})
		if err != nil {
			return err
		}
		if len(matches) > 0 {
			for _, mr := range matches {
				if err := w.applySetItems(m.OnMatchSet, mr); err != nil {
					return err
				}
				out = append(out, mr)
			}
			continue
		}
		created := w.se.ctx.copyFrame(row)
		// MERGE creation requires directed single-type relationships like
		// CREATE.
		for _, rp := range m.Pattern.Rels {
			if rp.Direction == DirBoth {
				return evalErrorf("MERGE creation requires directed relationships")
			}
			if len(rp.Types) != 1 {
				return evalErrorf("MERGE creation requires exactly one relationship type")
			}
		}
		if err := w.createMergePattern(m.Pattern, created); err != nil {
			return err
		}
		if err := w.applySetItems(m.OnCreateSet, created); err != nil {
			return err
		}
		out = append(out, created)
	}
	w.rows = out
	return nil
}

// createMergePattern is createPattern but allows labels/props on bound
// variables to be interpreted as constraints already satisfied.
func (w *writeIter) createMergePattern(pat *Pattern, row Row) error {
	nodes := make([]*graph.Node, len(pat.Nodes))
	for i, np := range pat.Nodes {
		if v, bound := row.get(np.slot); bound {
			n, ok := v.(*graph.Node)
			if !ok {
				return evalErrorf("variable `%s` is not a node", np.Var)
			}
			nodes[i] = n
			continue
		}
		props, err := w.evalPropMap(np.Props, row)
		if err != nil {
			return err
		}
		n, err := w.se.ctx.g.CreateNode(np.Labels, props)
		if err != nil {
			return err
		}
		w.se.stats.NodesCreated++
		w.se.stats.PropertiesSet += len(props)
		w.se.stats.LabelsAdded += len(np.Labels)
		if np.slot >= 0 {
			row[np.slot] = n
		}
		nodes[i] = n
	}
	for i, rp := range pat.Rels {
		props, err := w.evalPropMap(rp.Props, row)
		if err != nil {
			return err
		}
		start, end := nodes[i], nodes[i+1]
		if rp.Direction == DirLeft {
			start, end = end, start
		}
		r, err := w.se.ctx.g.CreateRelationship(start.ID, end.ID, rp.Types[0], props)
		if err != nil {
			return err
		}
		w.se.stats.RelationshipsCreated++
		w.se.stats.PropertiesSet += len(props)
		if rp.slot >= 0 {
			row[rp.slot] = r
		}
	}
	return nil
}

func (w *writeIter) execSet(items []*SetItem) error {
	for _, row := range w.rows {
		if err := w.applySetItems(items, row); err != nil {
			return err
		}
	}
	return nil
}

func (w *writeIter) applySetItems(items []*SetItem, row Row) error {
	for _, it := range items {
		v, bound := row.get(it.slot)
		if !bound {
			return evalErrorf("variable `%s` not defined", it.Var)
		}
		if graph.KindOf(v) == graph.KindNull {
			continue // SET on null (failed optional match) is a no-op
		}
		if len(it.Labels) > 0 {
			n, ok := v.(*graph.Node)
			if !ok {
				return evalErrorf("cannot add labels to non-node `%s`", it.Var)
			}
			for _, l := range it.Labels {
				if err := w.se.ctx.g.AddNodeLabel(n.ID, l); err != nil {
					return err
				}
				w.se.stats.LabelsAdded++
			}
			continue
		}
		val, err := w.se.ctx.eval(it.Expr, row)
		if err != nil {
			return err
		}
		switch e := v.(type) {
		case *graph.Node:
			if err := w.se.ctx.g.SetNodeProp(e.ID, it.Prop, val); err != nil {
				return err
			}
		case *graph.Relationship:
			if err := w.se.ctx.g.SetRelProp(e.ID, it.Prop, val); err != nil {
				return err
			}
		default:
			return evalErrorf("cannot SET property on %T", v)
		}
		w.se.stats.PropertiesSet++
	}
	return nil
}

func (w *writeIter) execRemove(rc *RemoveClause) error {
	for _, row := range w.rows {
		for _, it := range rc.Items {
			v, bound := row.get(it.slot)
			if !bound {
				return evalErrorf("variable `%s` not defined", it.Var)
			}
			if graph.KindOf(v) == graph.KindNull {
				continue
			}
			if len(it.Labels) > 0 {
				n, ok := v.(*graph.Node)
				if !ok {
					return evalErrorf("cannot remove labels from non-node `%s`", it.Var)
				}
				for _, l := range it.Labels {
					if err := w.se.ctx.g.RemoveNodeLabel(n.ID, l); err != nil {
						return err
					}
					w.se.stats.LabelsRemoved++
				}
				continue
			}
			switch e := v.(type) {
			case *graph.Node:
				if err := w.se.ctx.g.SetNodeProp(e.ID, it.Prop, nil); err != nil {
					return err
				}
			case *graph.Relationship:
				if err := w.se.ctx.g.SetRelProp(e.ID, it.Prop, nil); err != nil {
					return err
				}
			default:
				return evalErrorf("cannot REMOVE property from %T", v)
			}
			w.se.stats.PropertiesSet++
		}
	}
	return nil
}

// execDelete deletes the entities each expression yields. A list
// yields its elements, and each element follows the same rules as a
// single value: null is skipped, an entity already gone is skipped,
// and a node with relationships needs DETACH.
func (w *writeIter) execDelete(d *DeleteClause) error {
	deletedNodes := map[int64]bool{}
	deletedRels := map[int64]bool{}
	deleteOne := func(v graph.Value) error {
		switch x := v.(type) {
		case nil:
			return nil
		case *graph.Node:
			if deletedNodes[x.ID] {
				return nil
			}
			if err := w.se.ctx.g.DeleteNode(x.ID, d.Detach); err != nil {
				if errors.Is(err, graph.ErrHasRels) {
					return evalErrorf("cannot delete node %d with relationships; use DETACH DELETE", x.ID)
				}
				if errors.Is(err, graph.ErrNodeNotFound) {
					return nil
				}
				return err
			}
			deletedNodes[x.ID] = true
			w.se.stats.NodesDeleted++
			return nil
		case *graph.Relationship:
			if deletedRels[x.ID] {
				return nil
			}
			if err := w.se.ctx.g.DeleteRelationship(x.ID); err != nil {
				if errors.Is(err, graph.ErrRelNotFound) {
					return nil
				}
				return err
			}
			deletedRels[x.ID] = true
			w.se.stats.RelationshipsDeleted++
			return nil
		}
		return evalErrorf("cannot DELETE %T", v)
	}
	for _, row := range w.rows {
		for _, e := range d.Exprs {
			v, err := w.se.ctx.eval(e, row)
			if err != nil {
				return err
			}
			list, isList := v.([]graph.Value)
			if !isList {
				list = []graph.Value{v}
			}
			for _, el := range list {
				if err := deleteOne(el); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
