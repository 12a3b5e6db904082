package cypher

import (
	"strconv"
	"strings"
)

// Parse compiles query text into an AST and numbers the names it binds
// into frame slots (see slots.go). The returned error is a
// *SyntaxError carrying the source position of the first problem.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	q.layout = resolveSlots(q)
	return q, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokenKind) bool { return p.cur().Kind == kind }

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == tokKeyword && t.Text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) accept(kind TokenKind) bool {
	if p.at(kind) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, what string) (Token, error) {
	t := p.cur()
	if t.Kind != kind {
		return t, errorf(t.Line, t.Col, "expected %s, found %s", what, t)
	}
	p.pos++
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.Kind != tokKeyword || t.Text != kw {
		return errorf(t.Line, t.Col, "expected %s, found %s", kw, t)
	}
	p.pos++
	return nil
}

// expectIdent accepts an identifier, also tolerating non-reserved-feeling
// keywords used as names (COUNT etc. appear as aliases in the wild).
func (p *parser) expectIdent(what string) (string, error) {
	t := p.cur()
	switch t.Kind {
	case tokIdent:
		p.pos++
		return t.Text, nil
	case tokKeyword:
		// Allow soft keywords as identifiers where unambiguous.
		switch t.Text {
		case "COUNT", "ANY", "ALL", "NONE", "SINGLE", "EXISTS", "END", "ON":
			p.pos++
			return strings.ToLower(t.Text), nil
		}
	}
	return "", errorf(t.Line, t.Col, "expected %s, found %s", what, t)
}

// expectName accepts an identifier or any keyword in positions where the
// grammar is unambiguous (labels after ':', relationship types,
// property names after '.', map keys before ':'). Keywords keep their
// original source spelling — the IYP schema's `AS` label depends on it.
func (p *parser) expectName(what string) (string, error) {
	t := p.cur()
	switch t.Kind {
	case tokIdent:
		p.pos++
		return t.Text, nil
	case tokKeyword:
		p.pos++
		if t.Orig != "" {
			return t.Orig, nil
		}
		return t.Text, nil
	}
	return "", errorf(t.Line, t.Col, "expected %s, found %s", what, t)
}

func (p *parser) parseQuery() (*Query, error) {
	q, err := p.parseSingleQuery()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("UNION") {
		p.pos++
		all := p.acceptKeyword("ALL")
		part, err := p.parseSingleQuery()
		if err != nil {
			return nil, err
		}
		q.Unions = append(q.Unions, &UnionPart{All: all, Query: part})
	}
	if t := p.cur(); t.Kind != tokEOF {
		return nil, errorf(t.Line, t.Col, "unexpected %s after query", t)
	}
	return q, nil
}

func (p *parser) parseSingleQuery() (*Query, error) {
	q := &Query{}
	for {
		t := p.cur()
		if t.Kind == tokEOF || (t.Kind == tokKeyword && t.Text == "UNION") {
			break
		}
		if t.Kind == tokSemi {
			p.pos++
			continue
		}
		if t.Kind != tokKeyword {
			return nil, errorf(t.Line, t.Col, "expected a clause keyword, found %s", t)
		}
		var cl Clause
		var err error
		switch t.Text {
		case "MATCH":
			cl, err = p.parseMatch(false)
		case "OPTIONAL":
			p.pos++
			if !p.atKeyword("MATCH") {
				cur := p.cur()
				return nil, errorf(cur.Line, cur.Col, "expected MATCH after OPTIONAL, found %s", cur)
			}
			cl, err = p.parseMatch(true)
		case "UNWIND":
			cl, err = p.parseUnwind()
		case "WITH":
			cl, err = p.parseWith()
		case "RETURN":
			cl, err = p.parseReturn()
		case "CREATE":
			cl, err = p.parseCreate()
		case "MERGE":
			cl, err = p.parseMerge()
		case "SET":
			cl, err = p.parseSet()
		case "REMOVE":
			cl, err = p.parseRemove()
		case "DELETE", "DETACH":
			cl, err = p.parseDelete()
		default:
			return nil, errorf(t.Line, t.Col, "unexpected keyword %s at clause position", t.Text)
		}
		if err != nil {
			return nil, err
		}
		q.Clauses = append(q.Clauses, cl)
	}
	if len(q.Clauses) == 0 {
		return nil, errorf(1, 1, "empty query")
	}
	return q, p.validate(q)
}

// validate enforces clause-ordering rules that the executor relies on.
func (p *parser) validate(q *Query) error {
	hasWrite := false
	for _, cl := range q.Clauses {
		switch cl.(type) {
		case *CreateClause, *MergeClause, *SetClause, *DeleteClause, *RemoveClause:
			hasWrite = true
		}
	}
	last := q.Clauses[len(q.Clauses)-1]
	if _, ok := last.(*ReturnClause); !ok && !hasWrite {
		return errorf(1, 1, "read query must end with RETURN")
	}
	for i, cl := range q.Clauses {
		if _, ok := cl.(*ReturnClause); ok && i != len(q.Clauses)-1 {
			return errorf(1, 1, "RETURN must be the final clause")
		}
	}
	return nil
}

func (p *parser) parseMatch(optional bool) (*MatchClause, error) {
	if err := p.expectKeyword("MATCH"); err != nil {
		return nil, err
	}
	m := &MatchClause{Optional: optional}
	for {
		pat, err := p.parsePattern(true)
		if err != nil {
			return nil, err
		}
		m.Patterns = append(m.Patterns, pat)
		if !p.accept(tokComma) {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		m.Where = e
	}
	return m, nil
}

func (p *parser) parseUnwind() (*UnwindClause, error) {
	if err := p.expectKeyword("UNWIND"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("alias")
	if err != nil {
		return nil, err
	}
	return &UnwindClause{Expr: e, Alias: name}, nil
}

func (p *parser) parseWith() (*WithClause, error) {
	if err := p.expectKeyword("WITH"); err != nil {
		return nil, err
	}
	w := &WithClause{}
	w.Distinct = p.acceptKeyword("DISTINCT")
	items, err := p.parseReturnItems()
	if err != nil {
		return nil, err
	}
	w.Items = items
	if w.OrderBy, w.Skip, w.Limit, err = p.parseOrderSkipLimit(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		if w.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (p *parser) parseReturn() (*ReturnClause, error) {
	if err := p.expectKeyword("RETURN"); err != nil {
		return nil, err
	}
	r := &ReturnClause{}
	r.Distinct = p.acceptKeyword("DISTINCT")
	items, err := p.parseReturnItems()
	if err != nil {
		return nil, err
	}
	r.Items = items
	if r.OrderBy, r.Skip, r.Limit, err = p.parseOrderSkipLimit(); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parseOrderSkipLimit() (order []*SortItem, skip, limit Expr, err error) {
	if p.acceptKeyword("ORDER") {
		if err = p.expectKeyword("BY"); err != nil {
			return
		}
		for {
			var e Expr
			if e, err = p.parseExpr(); err != nil {
				return
			}
			it := &SortItem{Expr: e}
			if p.acceptKeyword("DESC") || p.acceptKeyword("DESCENDING") {
				it.Desc = true
			} else if p.acceptKeyword("ASC") || p.acceptKeyword("ASCENDING") {
				it.Desc = false
			}
			order = append(order, it)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	if p.acceptKeyword("SKIP") {
		if skip, err = p.parseExpr(); err != nil {
			return
		}
	}
	if p.acceptKeyword("LIMIT") {
		if limit, err = p.parseExpr(); err != nil {
			return
		}
	}
	return
}

func (p *parser) parseReturnItems() ([]*ReturnItem, error) {
	var items []*ReturnItem
	if p.accept(tokStar) {
		items = append(items, &ReturnItem{Star: true})
		if !p.accept(tokComma) {
			return items, nil
		}
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		it := &ReturnItem{Expr: e}
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent("alias")
			if err != nil {
				return nil, err
			}
			it.Alias = alias
		}
		items = append(items, it)
		if !p.accept(tokComma) {
			break
		}
	}
	return items, nil
}

func (p *parser) parseCreate() (*CreateClause, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	c := &CreateClause{}
	for {
		pat, err := p.parsePattern(false)
		if err != nil {
			return nil, err
		}
		c.Patterns = append(c.Patterns, pat)
		if !p.accept(tokComma) {
			break
		}
	}
	return c, nil
}

func (p *parser) parseMerge() (*MergeClause, error) {
	if err := p.expectKeyword("MERGE"); err != nil {
		return nil, err
	}
	pat, err := p.parsePattern(false)
	if err != nil {
		return nil, err
	}
	m := &MergeClause{Pattern: pat}
	for p.atKeyword("ON") {
		p.pos++
		t := p.cur()
		switch {
		case p.acceptKeyword("CREATE"):
			if err := p.expectKeyword("SET"); err != nil {
				return nil, err
			}
			items, err := p.parseSetItems()
			if err != nil {
				return nil, err
			}
			m.OnCreateSet = append(m.OnCreateSet, items...)
		case p.acceptKeyword("MATCH"):
			if err := p.expectKeyword("SET"); err != nil {
				return nil, err
			}
			items, err := p.parseSetItems()
			if err != nil {
				return nil, err
			}
			m.OnMatchSet = append(m.OnMatchSet, items...)
		default:
			return nil, errorf(t.Line, t.Col, "expected CREATE or MATCH after ON")
		}
	}
	return m, nil
}

func (p *parser) parseSet() (*SetClause, error) {
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	items, err := p.parseSetItems()
	if err != nil {
		return nil, err
	}
	return &SetClause{Items: items}, nil
}

func (p *parser) parseSetItems() ([]*SetItem, error) {
	var items []*SetItem
	for {
		name, err := p.expectIdent("variable")
		if err != nil {
			return nil, err
		}
		it := &SetItem{Var: name}
		switch {
		case p.accept(tokDot):
			prop, err := p.expectName("property name")
			if err != nil {
				return nil, err
			}
			it.Prop = prop
			if _, err := p.expect(tokEq, "'='"); err != nil {
				return nil, err
			}
			if it.Expr, err = p.parseExpr(); err != nil {
				return nil, err
			}
		case p.at(tokColon):
			for p.accept(tokColon) {
				label, err := p.expectName("label")
				if err != nil {
					return nil, err
				}
				it.Labels = append(it.Labels, label)
			}
		default:
			t := p.cur()
			return nil, errorf(t.Line, t.Col, "expected '.' or ':' in SET item")
		}
		items = append(items, it)
		if !p.accept(tokComma) {
			break
		}
	}
	return items, nil
}

func (p *parser) parseRemove() (*RemoveClause, error) {
	if err := p.expectKeyword("REMOVE"); err != nil {
		return nil, err
	}
	r := &RemoveClause{}
	for {
		name, err := p.expectIdent("variable")
		if err != nil {
			return nil, err
		}
		it := &RemoveItem{Var: name}
		switch {
		case p.accept(tokDot):
			prop, err := p.expectName("property name")
			if err != nil {
				return nil, err
			}
			it.Prop = prop
		case p.at(tokColon):
			for p.accept(tokColon) {
				label, err := p.expectName("label")
				if err != nil {
					return nil, err
				}
				it.Labels = append(it.Labels, label)
			}
		default:
			t := p.cur()
			return nil, errorf(t.Line, t.Col, "expected '.' or ':' in REMOVE item")
		}
		r.Items = append(r.Items, it)
		if !p.accept(tokComma) {
			break
		}
	}
	return r, nil
}

func (p *parser) parseDelete() (*DeleteClause, error) {
	d := &DeleteClause{}
	if p.acceptKeyword("DETACH") {
		d.Detach = true
	}
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Exprs = append(d.Exprs, e)
		if !p.accept(tokComma) {
			break
		}
	}
	return d, nil
}

// parsePattern parses [var =] (node)(-[rel]->(node))*. allowPathVar
// enables the "p = ..." binding form (MATCH only).
func (p *parser) parsePattern(allowPathVar bool) (*Pattern, error) {
	pat := &Pattern{}
	if allowPathVar && p.at(tokIdent) && p.toks[p.pos+1].Kind == tokEq {
		pat.PathVar = p.next().Text
		p.next() // '='
	}
	n, err := p.parseNodePattern()
	if err != nil {
		return nil, err
	}
	pat.Nodes = append(pat.Nodes, n)
	for p.at(tokMinus) || p.at(tokLt) {
		r, err := p.parseRelPattern()
		if err != nil {
			return nil, err
		}
		n, err := p.parseNodePattern()
		if err != nil {
			return nil, err
		}
		pat.Rels = append(pat.Rels, r)
		pat.Nodes = append(pat.Nodes, n)
	}
	return pat, nil
}

func (p *parser) parseNodePattern() (*NodePattern, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	n := &NodePattern{}
	if p.at(tokIdent) {
		n.Var = p.next().Text
	}
	for p.accept(tokColon) {
		label, err := p.expectName("label")
		if err != nil {
			return nil, err
		}
		n.Labels = append(n.Labels, label)
	}
	if p.at(tokLBrace) {
		props, err := p.parsePropMap()
		if err != nil {
			return nil, err
		}
		n.Props = props
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *parser) parseRelPattern() (*RelPattern, error) {
	r := &RelPattern{Direction: DirBoth}
	leftArrow := false
	if p.accept(tokLt) {
		leftArrow = true
		if _, err := p.expect(tokMinus, "'-' after '<'"); err != nil {
			return nil, err
		}
	} else if _, err := p.expect(tokMinus, "'-'"); err != nil {
		return nil, err
	}
	if p.accept(tokLBracket) {
		if p.at(tokIdent) {
			r.Var = p.next().Text
		}
		if p.accept(tokColon) {
			for {
				typ, err := p.expectName("relationship type")
				if err != nil {
					return nil, err
				}
				r.Types = append(r.Types, typ)
				if p.accept(tokPipe) {
					p.accept(tokColon) // tolerate |:TYPE form
					continue
				}
				break
			}
		}
		if p.accept(tokStar) {
			vl := &VarLengthRange{Min: 1, Max: -1}
			if p.at(tokInt) {
				minTok := p.next()
				minVal, err := strconv.Atoi(minTok.Text)
				if err != nil {
					return nil, errorf(minTok.Line, minTok.Col, "bad range bound %q", minTok.Text)
				}
				vl.Min = minVal
				vl.Max = minVal
				if p.accept(tokDotDot) {
					vl.Max = -1
					if p.at(tokInt) {
						maxTok := p.next()
						maxVal, err := strconv.Atoi(maxTok.Text)
						if err != nil {
							return nil, errorf(maxTok.Line, maxTok.Col, "bad range bound %q", maxTok.Text)
						}
						vl.Max = maxVal
					}
				}
			} else if p.accept(tokDotDot) {
				if p.at(tokInt) {
					maxTok := p.next()
					maxVal, err := strconv.Atoi(maxTok.Text)
					if err != nil {
						return nil, errorf(maxTok.Line, maxTok.Col, "bad range bound %q", maxTok.Text)
					}
					vl.Max = maxVal
				}
			}
			if vl.Max >= 0 && vl.Max < vl.Min {
				t := p.cur()
				return nil, errorf(t.Line, t.Col, "variable-length range max %d below min %d", vl.Max, vl.Min)
			}
			r.VarLength = vl
		}
		if p.at(tokLBrace) {
			props, err := p.parsePropMap()
			if err != nil {
				return nil, err
			}
			r.Props = props
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokMinus, "'-'"); err != nil {
		return nil, err
	}
	rightArrow := false
	if p.accept(tokGt) {
		rightArrow = true
	}
	switch {
	case leftArrow && rightArrow:
		t := p.cur()
		return nil, errorf(t.Line, t.Col, "relationship cannot point both ways")
	case leftArrow:
		r.Direction = DirLeft
	case rightArrow:
		r.Direction = DirRight
	default:
		r.Direction = DirBoth
	}
	return r, nil
}

func (p *parser) parsePropMap() (map[string]Expr, error) {
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	props := make(map[string]Expr)
	if p.accept(tokRBrace) {
		return props, nil
	}
	for {
		key, err := p.expectName("property name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon, "':'"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		props[key] = e
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return nil, err
	}
	return props, nil
}
