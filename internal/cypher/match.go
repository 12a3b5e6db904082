package cypher

import (
	"chatiyp/internal/graph"
)

// matcher enumerates pattern matches against the graph. A single matcher
// instance spans one MATCH clause so relationship-uniqueness (openCypher
// relationship isomorphism) holds across all its patterns.
//
// Matching binds into one work frame per match state: binding a
// variable stores into its slot and unbinding stores the unbound
// marker back, so enumeration itself allocates nothing per binding.
// Only a complete match that the consumer keeps is copied out.
type matcher struct {
	ctx *evalCtx
	// usedRels is the stack of relationships bound along the current
	// path; patterns are short, so a linear scan beats a set.
	usedRels []int64
	// hints are the WHERE-derived equality predicates of the enclosing
	// MATCH clause (see plan.go); they let anchorCandidates serve the
	// anchor from a property index instead of a label scan. nil is
	// valid and means no hints.
	hints matchHints
}

func newMatcher(ctx *evalCtx, hints matchHints) *matcher {
	return &matcher{ctx: ctx, hints: hints}
}

func (m *matcher) relUsed(id int64) bool {
	for _, u := range m.usedRels {
		if u == id {
			return true
		}
	}
	return false
}

// match enumerates every extension of row that satisfies pat, invoking
// emit for each complete match. emit returning false stops enumeration
// early. The frame passed to emit is the matcher's work frame: emit
// must copy it to keep it.
func (m *matcher) match(pat *Pattern, row Row, emit func(Row) bool) error {
	if len(pat.Nodes) == 0 {
		return evalErrorf("empty pattern")
	}
	anchor := m.pickAnchor(pat, row)
	candidates, err := m.anchorCandidates(pat.Nodes[anchor], row)
	if err != nil {
		return err
	}
	state := m.newState(pat, anchor, len(row), emit)
	for i := 0; i < candidates.len(); i++ {
		cand := candidates.at(m.ctx.r, i)
		if cand == nil {
			continue
		}
		cont, err := m.matchCandidate(state, cand, row)
		if err != nil {
			return err
		}
		if !cont {
			break
		}
	}
	return nil
}

// matchState records the concrete entities bound at each pattern
// position so named paths can be reconstructed in pattern order, plus
// the work frame every binding of the pattern goes into.
type matchState struct {
	m        *matcher
	pat      *Pattern
	anchor   int
	emit     func(Row) bool
	nodes    []*graph.Node
	relBinds []relBinding
	hops     []hop
	work     Row
}

// newState prepares matching pat from anchor; rowWidth is the width of
// the rows it will extend.
func (m *matcher) newState(pat *Pattern, anchor, rowWidth int, emit func(Row) bool) *matchState {
	width := m.ctx.width
	if rowWidth > width {
		width = rowWidth
	}
	st := &matchState{
		m:        m,
		pat:      pat,
		anchor:   anchor,
		emit:     emit,
		nodes:    make([]*graph.Node, len(pat.Nodes)),
		relBinds: make([]relBinding, len(pat.Rels)),
		hops:     make([]hop, len(pat.Rels)),
		work:     make(Row, width),
	}
	for i := range st.hops {
		h := &st.hops[i]
		h.st, h.pos, h.forward = st, i, i >= anchor
		h.visit = h.step
	}
	return st
}

// matchCandidate enumerates every complete match of state.pat that
// anchors on cand at the anchor position, extending row. It is the
// per-candidate slice of match(), split out so the streaming executor
// can pull candidate-by-candidate and stop a scan early. Returns false
// when emit requested a stop.
func (m *matcher) matchCandidate(state *matchState, cand *graph.Node, row Row) (bool, error) {
	// One step per anchor candidate: a canceled context stops a label
	// or full scan within cancelCheckInterval candidates.
	if err := m.ctx.checkCancel(); err != nil {
		return false, err
	}
	work := state.work
	n := copy(work, row)
	work[n:].unbindAll()
	ok, _, err := m.bindNode(state.pat.Nodes[state.anchor], cand, work)
	if err != nil || !ok {
		return err == nil, err
	}
	state.nodes[state.anchor] = cand
	return m.expandRight(state, state.anchor)
}

// emitMatch hands one complete match to the consumer, with the named
// path bound for the duration of the call.
func (s *matchState) emitMatch() bool {
	slot := s.pat.pathSlot
	if slot < 0 {
		return s.emit(s.work)
	}
	saved := s.work[slot]
	s.work[slot] = s.buildPath()
	keep := s.emit(s.work)
	s.work[slot] = saved
	return keep
}

// relBinding is the concrete traversal of one relationship position:
// a single rel, or a variable-length chain with its interior nodes.
type relBinding struct {
	single  *graph.Relationship
	chain   []*graph.Relationship
	interim []*graph.Node // nodes strictly between the endpoints, pattern order
	varLen  bool
}

func (s *matchState) buildPath() graph.Path {
	var p graph.Path
	for i, n := range s.nodes {
		p.Nodes = append(p.Nodes, n)
		if i < len(s.relBinds) {
			rb := s.relBinds[i]
			if rb.varLen {
				p.Rels = append(p.Rels, rb.chain...)
				if len(rb.interim) > 0 {
					p.Nodes = append(p.Nodes, rb.interim...)
				}
			} else if rb.single != nil {
				p.Rels = append(p.Rels, rb.single)
			}
		}
	}
	return p
}

// expandRight matches the pattern positions right of pos, then walks
// leftward from the anchor back to the start. Returns false when the
// emit callback requested a stop.
func (m *matcher) expandRight(state *matchState, pos int) (bool, error) {
	if pos == len(state.pat.Nodes)-1 {
		return m.expandLeft(state, state.anchor)
	}
	return m.traverse(state, pos, state.nodes[pos])
}

func (m *matcher) expandLeft(state *matchState, pos int) (bool, error) {
	if pos == 0 {
		return state.emitMatch(), nil
	}
	return m.traverse(state, pos-1, state.nodes[pos])
}

// traverse enumerates the continuations across relationship position
// relPos from current: rightward when relPos lies right of the anchor,
// leftward otherwise.
func (m *matcher) traverse(state *matchState, relPos int, current *graph.Node) (bool, error) {
	h := &state.hops[relPos]
	rp := state.pat.Rels[relPos]
	if rp.VarLength != nil {
		return m.traverseVarLength(state, h, current)
	}
	// Expansion iterates the reader's pre-bucketed adjacency in place:
	// one callback per candidate relationship, no per-hop slices, maps
	// or sorting (see graph.View.IncidentDo).
	h.from, h.err = current, nil
	completed := m.ctx.r.IncidentDo(current.ID, traversalDirection(rp.Direction, h.forward), rp.Types, h.visit)
	if h.err != nil {
		return false, h.err
	}
	return completed, nil
}

// hop is one relationship position of a match state, walked away from
// the anchor. visit is its IncidentDo callback, bound once per state,
// so expansion allocates no closure per traversed relationship. A hop
// is never re-entered while active: the walk visits each position once
// per path.
type hop struct {
	st      *matchState
	pos     int  // relationship position in the pattern
	forward bool // walking left-to-right (the position lies right of the anchor)
	from    *graph.Node
	err     error
	visit   func(*graph.Relationship) bool
}

// target is the node position the hop walks to.
func (h *hop) target() int {
	if h.forward {
		return h.pos + 1
	}
	return h.pos
}

// next continues the walk from the hop's target position.
func (h *hop) next() (bool, error) {
	if h.forward {
		return h.st.m.expandRight(h.st, h.pos+1)
	}
	return h.st.m.expandLeft(h.st, h.pos)
}

func (h *hop) step(r *graph.Relationship) bool {
	st, m := h.st, h.st.m
	rp := st.pat.Rels[h.pos]
	row := st.work
	if m.relUsed(r.ID) {
		return true
	}
	ok, err := m.relPropsMatch(rp, r, row)
	if err != nil {
		h.err = err
		return false
	}
	if !ok {
		return true
	}
	otherID := r.StartID
	if r.StartID == h.from.ID {
		otherID = r.EndID // covers self-loops too
	}
	other := m.ctx.r.Node(otherID)
	if other == nil {
		return true
	}
	np := st.pat.Nodes[h.target()]
	okNode, setNode, err := m.bindNode(np, other, row)
	if err != nil {
		h.err = err
		return false
	}
	if !okNode {
		return true
	}
	okRel, setRel, err := m.bindRel(rp, r, row)
	if err != nil {
		h.err = err
		return false
	}
	if !okRel {
		if setNode {
			row[np.slot] = unbound
		}
		return true
	}
	m.usedRels = append(m.usedRels, r.ID)
	st.relBinds[h.pos] = relBinding{single: r}
	st.nodes[h.target()] = other
	keep, err := h.next()
	m.usedRels = m.usedRels[:len(m.usedRels)-1]
	if setRel {
		row[rp.slot] = unbound
	}
	if setNode {
		row[np.slot] = unbound
	}
	if err != nil {
		h.err = err
		return false
	}
	return keep
}

// traverseVarLength enumerates simple relationship chains of length
// [min, max] (max capped by Options.MaxVarLength when unbounded).
func (m *matcher) traverseVarLength(state *matchState, h *hop, current *graph.Node) (bool, error) {
	rp := state.pat.Rels[h.pos]
	vl := rp.VarLength
	maxLen := vl.Max
	if maxLen < 0 {
		maxLen = m.ctx.opts.MaxVarLength
	}
	dir := traversalDirection(rp.Direction, h.forward)
	targetNP := state.pat.Nodes[h.target()]
	row := state.work

	var chain []*graph.Relationship
	var interim []*graph.Node

	finish := func(endNode *graph.Node) (bool, error) {
		okNode, setNode, err := m.bindNode(targetNP, endNode, row)
		if err != nil {
			return false, err
		}
		if !okNode {
			return true, nil
		}
		setRel := false
		if rp.slot >= 0 {
			if row.bound(rp.slot) {
				if setNode {
					row[targetNP.slot] = unbound
				}
				return true, nil // var-length rel var cannot be pre-bound
			}
			vals := make([]graph.Value, len(chain))
			for i, r := range chain {
				vals[i] = r
			}
			row[rp.slot] = vals
			setRel = true
		}
		// Record the binding, preserving pattern order for paths. The
		// last traversal node is the far endpoint itself (owned by the
		// node-pattern position), so only the strictly-interior nodes
		// are kept.
		rb := relBinding{varLen: true}
		rb.chain = append([]*graph.Relationship(nil), chain...)
		if len(interim) > 0 {
			rb.interim = append([]*graph.Node(nil), interim[:len(interim)-1]...)
		}
		if !h.forward {
			reverseRels(rb.chain)
			reverseNodes(rb.interim)
		}
		state.relBinds[h.pos] = rb
		state.nodes[h.target()] = endNode
		keep, err := h.next()
		if setRel {
			row[rp.slot] = unbound
		}
		if setNode {
			row[targetNP.slot] = unbound
		}
		return keep, err
	}

	var dfs func(node *graph.Node, depth int) (bool, error)
	dfs = func(node *graph.Node, depth int) (bool, error) {
		// Var-length expansion can fan out exponentially between anchor
		// candidates, so it polls for cancellation on its own.
		if err := m.ctx.checkCancel(); err != nil {
			return false, err
		}
		if depth >= vl.Min {
			keep, err := finish(node)
			if err != nil || !keep {
				return keep, err
			}
		}
		if depth == maxLen {
			return true, nil
		}
		var stepErr error
		completed := m.ctx.r.IncidentDo(node.ID, dir, rp.Types, func(r *graph.Relationship) bool {
			if m.relUsed(r.ID) {
				return true
			}
			ok, err := m.relPropsMatch(rp, r, row)
			if err != nil {
				stepErr = err
				return false
			}
			if !ok {
				return true
			}
			var otherID int64
			if r.StartID == node.ID {
				otherID = r.EndID
			} else {
				otherID = r.StartID
			}
			other := m.ctx.r.Node(otherID)
			if other == nil {
				return true
			}
			m.usedRels = append(m.usedRels, r.ID)
			chain = append(chain, r)
			// The far endpoint is interior unless this hop completes a
			// candidate path; interior tracking is append-only per depth.
			interim = append(interim, other)
			keep, err := dfs(other, depth+1)
			interim = interim[:len(interim)-1]
			chain = chain[:len(chain)-1]
			m.usedRels = m.usedRels[:len(m.usedRels)-1]
			if err != nil {
				stepErr = err
				return false
			}
			return keep
		})
		if stepErr != nil {
			return false, stepErr
		}
		// A stop without an error can only come from keep==false: the
		// emit chain asked to end enumeration.
		return completed, nil
	}
	return dfs(current, 0)
}

func reverseRels(rs []*graph.Relationship) {
	for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
		rs[i], rs[j] = rs[j], rs[i]
	}
}

func reverseNodes(ns []*graph.Node) {
	for i, j := 0, len(ns)-1; i < j; i, j = i+1, j-1 {
		ns[i], ns[j] = ns[j], ns[i]
	}
}

// traversalDirection maps a pattern arrow to a graph traversal direction
// given the walk orientation at this pattern position.
func traversalDirection(d RelDirection, forward bool) graph.Direction {
	switch d {
	case DirRight:
		if forward {
			return graph.Outgoing
		}
		return graph.Incoming
	case DirLeft:
		if forward {
			return graph.Incoming
		}
		return graph.Outgoing
	default:
		return graph.Both
	}
}

// bindNode checks a node against a node pattern and binds its variable.
// set reports whether it bound the slot, which the caller then unbinds
// when it backtracks; an already-bound variable only has to agree.
func (m *matcher) bindNode(np *NodePattern, n *graph.Node, row Row) (ok, set bool, err error) {
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false, false, nil
		}
	}
	for key, expr := range np.Props {
		want, err := m.ctx.eval(expr, row)
		if err != nil {
			return false, false, err
		}
		have, ok := n.Props[key]
		if !ok || !graph.ValuesEqual(have, want) {
			return false, false, nil
		}
	}
	if np.slot < 0 {
		return true, false, nil
	}
	if prev, bound := row.get(np.slot); bound {
		pn, ok := prev.(*graph.Node)
		if !ok {
			return false, false, evalErrorf("variable `%s` is not a node", np.Var)
		}
		return pn.ID == n.ID, false, nil
	}
	row[np.slot] = n
	return true, true, nil
}

// bindRel binds the rel variable (its properties are checked by
// relPropsMatch), with bindNode's set contract.
func (m *matcher) bindRel(rp *RelPattern, r *graph.Relationship, row Row) (ok, set bool, err error) {
	if rp.slot < 0 {
		return true, false, nil
	}
	if prev, bound := row.get(rp.slot); bound {
		pr, ok := prev.(*graph.Relationship)
		if !ok {
			return false, false, evalErrorf("variable `%s` is not a relationship", rp.Var)
		}
		return pr.ID == r.ID, false, nil
	}
	row[rp.slot] = r
	return true, true, nil
}

func (m *matcher) relPropsMatch(rp *RelPattern, r *graph.Relationship, row Row) (bool, error) {
	for key, expr := range rp.Props {
		want, err := m.ctx.eval(expr, row)
		if err != nil {
			return false, err
		}
		have, ok := r.Props[key]
		if !ok || !graph.ValuesEqual(have, want) {
			return false, nil
		}
	}
	return true, nil
}

// pickAnchor chooses the node position to start matching from: a bound
// variable wins, then an indexed (label, literal-prop) pair, then any
// labeled node with props, then any labeled node, then position 0.
func (m *matcher) pickAnchor(pat *Pattern, row Row) int {
	best, bestScore := 0, -1
	for i, np := range pat.Nodes {
		score := 0
		if row.bound(np.slot) {
			score = 1000
		}
		if score == 0 {
			if len(np.Labels) > 0 && len(np.Props) > 0 {
				score = 10
				if !m.ctx.opts.DisableIndexes {
					for _, l := range np.Labels {
						for p := range np.Props {
							if m.ctx.r.HasIndex(l, p) {
								score = 100
							}
						}
					}
				}
			} else if len(np.Labels) > 0 {
				score = 5
			} else if len(np.Props) > 0 {
				score = 2
			} else {
				score = 1
			}
			// A WHERE-derived index hint makes this position nearly as
			// good as an inline-prop index anchor (the inline form also
			// constrains interior positions, so it stays preferred).
			if score < 95 && m.hintFor(np) != nil {
				score = 95
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// candSet is the anchor candidate set: either a pre-resolved node (the
// bound-variable path) or a list of ids resolved lazily, one node per
// pull — so a downstream LIMIT never pays for resolving nodes the scan
// will not reach.
type candSet struct {
	nodes []*graph.Node // bound-variable case; takes precedence
	ids   []int64       // scan/index case, resolved on access
}

func (cs candSet) len() int {
	if cs.nodes != nil {
		return len(cs.nodes)
	}
	return len(cs.ids)
}

// at resolves the i-th candidate; nil means the id vanished (skip it).
func (cs candSet) at(r graph.Reader, i int) *graph.Node {
	if cs.nodes != nil {
		return cs.nodes[i]
	}
	return r.Node(cs.ids[i])
}

// sub returns the [lo, hi) subrange of the candidate set — the morsel
// unit of the parallel executor (see parallel.go).
func (cs candSet) sub(lo, hi int) candSet {
	if cs.nodes != nil {
		return candSet{nodes: cs.nodes[lo:hi]}
	}
	return candSet{ids: cs.ids[lo:hi]}
}

// anchorCandidates produces the starting node set for the anchor
// position, using the cheapest available access path.
func (m *matcher) anchorCandidates(np *NodePattern, row Row) (candSet, error) {
	if np.slot >= 0 {
		if v, bound := row.get(np.slot); bound {
			if graph.KindOf(v) == graph.KindNull {
				return candSet{}, nil // optional-match null propagates to no matches
			}
			n, ok := v.(*graph.Node)
			if !ok {
				return candSet{}, evalErrorf("variable `%s` is not a node", np.Var)
			}
			return candSet{nodes: []*graph.Node{n}}, nil
		}
	}
	// Indexed property lookup.
	if !m.ctx.opts.DisableIndexes {
		for _, label := range np.Labels {
			for prop, expr := range np.Props {
				if !m.ctx.r.HasIndex(label, prop) {
					continue
				}
				want, err := m.ctx.eval(expr, row)
				if err != nil {
					return candSet{}, err
				}
				ids, usedIndex := m.ctx.r.NodesByLabelProp(label, prop, want)
				if !usedIndex {
					continue
				}
				return candSet{ids: ids}, nil
			}
		}
	}
	// WHERE-derived equality hint: serve the anchor from the property
	// index. The full WHERE filter still runs after matching, so using
	// the (superset-safe) index lookup here cannot change results.
	if hint := m.hintFor(np); hint != nil {
		// A hint-value evaluation error (e.g. a missing parameter) falls
		// back to the scan path: the WHERE filter will surface the same
		// error if and only if rows actually reach it, keeping behavior
		// identical to unplanned execution.
		if want, err := m.ctx.eval(hint.Value, row); err == nil {
			if ids, usedIndex := m.ctx.r.NodesByLabelProp(hint.Label, hint.Prop, want); usedIndex {
				return candSet{ids: ids}, nil
			}
		}
	}
	if len(np.Labels) > 0 {
		// Scan the most selective label (fewest members).
		bestLabel := np.Labels[0]
		bestIDs := m.ctx.r.NodesByLabel(bestLabel)
		for _, l := range np.Labels[1:] {
			ids := m.ctx.r.NodesByLabel(l)
			if len(ids) < len(bestIDs) {
				bestLabel, bestIDs = l, ids
			}
		}
		_ = bestLabel
		return candSet{ids: bestIDs}, nil
	}
	return candSet{ids: m.ctx.r.AllNodeIDs()}, nil
}

// hintFor returns the first WHERE-derived index hint usable for this
// node pattern, or nil. Hints never apply when indexes are disabled.
func (m *matcher) hintFor(np *NodePattern) *indexHint {
	if m.ctx.opts.DisableIndexes || np.Var == "" {
		return nil
	}
	hs := m.hints[np.Var]
	if len(hs) == 0 {
		return nil
	}
	return &hs[0]
}

// patternVars collects the variable names a pattern would introduce —
// used by OPTIONAL MATCH to bind nulls on no-match.
func patternVars(pats []*Pattern) []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, p := range pats {
		add(p.PathVar)
		for _, n := range p.Nodes {
			add(n.Var)
		}
		for _, r := range p.Rels {
			add(r.Var)
		}
	}
	return out
}
