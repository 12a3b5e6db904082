package cypher

import (
	"strconv"
	"strings"
)

// Query is a parsed Cypher statement: an ordered list of clauses,
// optionally followed by UNION-joined continuation queries. The parser
// guarantees structural validity (e.g. a reading query ends in RETURN;
// write-only queries may omit it).
type Query struct {
	Clauses []Clause
	// Unions holds the queries joined to this one with UNION; the
	// executor concatenates their results (deduplicating unless All).
	Unions []*UnionPart

	// layout numbers the query's names into frame slots (see
	// slots.go); Parse builds it, and UNION parts share their top-level
	// query's layout.
	layout *slotLayout
}

// UnionPart is one UNION [ALL] continuation.
type UnionPart struct {
	All   bool
	Query *Query
}

// ReadOnly reports whether the query (including all UNION parts)
// contains no write clauses. Callers that re-execute a query — cursor
// pagination re-runs it for every page — must check this first: each
// re-execution of a write query would apply its writes again.
func (q *Query) ReadOnly() bool {
	for _, cl := range q.Clauses {
		switch cl.(type) {
		case *CreateClause, *MergeClause, *SetClause, *DeleteClause, *RemoveClause:
			return false
		}
	}
	for _, u := range q.Unions {
		if !u.Query.ReadOnly() {
			return false
		}
	}
	return true
}

// Clause is one top-level query clause.
type Clause interface{ clauseNode() }

// MatchClause is MATCH or OPTIONAL MATCH with an optional WHERE.
type MatchClause struct {
	Optional bool
	Patterns []*Pattern
	Where    Expr // nil when absent
}

// UnwindClause is UNWIND expr AS alias.
type UnwindClause struct {
	Expr  Expr
	Alias string
	slot  int
}

// WithClause is WITH items [WHERE] [ORDER BY] [SKIP] [LIMIT].
type WithClause struct {
	Distinct bool
	Items    []*ReturnItem
	Where    Expr
	OrderBy  []*SortItem
	Skip     Expr
	Limit    Expr
}

// ReturnClause is RETURN items [ORDER BY] [SKIP] [LIMIT].
type ReturnClause struct {
	Distinct bool
	Items    []*ReturnItem
	OrderBy  []*SortItem
	Skip     Expr
	Limit    Expr
}

// CreateClause is CREATE patterns.
type CreateClause struct {
	Patterns []*Pattern
}

// MergeClause is MERGE pattern [ON CREATE SET ...] [ON MATCH SET ...].
type MergeClause struct {
	Pattern     *Pattern
	OnCreateSet []*SetItem
	OnMatchSet  []*SetItem
}

// SetClause is SET items.
type SetClause struct {
	Items []*SetItem
}

// SetItem assigns Expr to the property Var.Prop, or (with Prop empty and
// Labels set) adds labels to Var.
type SetItem struct {
	Var    string
	Prop   string
	Labels []string
	Expr   Expr
	slot   int
}

// RemoveClause is REMOVE items (properties or labels).
type RemoveClause struct {
	Items []*RemoveItem
}

// RemoveItem removes the property Var.Prop, or the Labels from Var.
type RemoveItem struct {
	Var    string
	Prop   string
	Labels []string
	slot   int
}

// DeleteClause is [DETACH] DELETE exprs.
type DeleteClause struct {
	Detach bool
	Exprs  []Expr
}

func (*MatchClause) clauseNode()  {}
func (*UnwindClause) clauseNode() {}
func (*WithClause) clauseNode()   {}
func (*ReturnClause) clauseNode() {}
func (*CreateClause) clauseNode() {}
func (*MergeClause) clauseNode()  {}
func (*SetClause) clauseNode()    {}
func (*RemoveClause) clauseNode() {}
func (*DeleteClause) clauseNode() {}

// ReturnItem is one projection: expression plus optional alias. Star is
// true for RETURN *.
type ReturnItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// Name returns the output column name: the alias when present, otherwise
// the expression's source text.
func (ri *ReturnItem) Name() string {
	if ri.Alias != "" {
		return ri.Alias
	}
	return ExprString(ri.Expr)
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Expr Expr
	Desc bool
}

// Pattern is a path pattern: alternating node and relationship elements,
// optionally bound to a path variable (p = (a)-[r]->(b)).
type Pattern struct {
	PathVar  string
	Nodes    []*NodePattern // len(Nodes) == len(Rels)+1
	Rels     []*RelPattern
	pathSlot int // -1 without a path variable
}

// NodePattern is (var:Label1:Label2 {prop: expr}).
type NodePattern struct {
	Var    string
	Labels []string
	Props  map[string]Expr
	slot   int // -1 for an anonymous node
}

// RelPattern is -[var:TYPE1|TYPE2 {prop: expr} *min..max]-> with a
// direction. VarLength is nil for single-hop patterns.
type RelPattern struct {
	Var       string
	Types     []string
	Props     map[string]Expr
	Direction RelDirection
	VarLength *VarLengthRange
	slot      int // -1 for an anonymous relationship
}

// RelDirection is the arrow orientation in the pattern text.
type RelDirection int

// Directions: left-to-right, right-to-left, or undirected.
const (
	DirRight RelDirection = iota // -[]->
	DirLeft                      // <-[]-
	DirBoth                      // -[]-
)

// VarLengthRange is the *min..max of a variable-length relationship.
// Max < 0 means unbounded (capped by the executor's safety limit).
type VarLengthRange struct {
	Min int
	Max int
}

// Expr is an expression tree node.
type Expr interface{ exprNode() }

// Literal is a constant value: nil, bool, int64, float64 or string.
type Literal struct{ Value any }

// Variable references a bound name.
type Variable struct {
	Name string
	slot int
}

// Parameter references $name, resolved from the execution parameters.
type Parameter struct{ Name string }

// PropertyAccess is subject.prop (chained for nested maps).
type PropertyAccess struct {
	Subject Expr
	Prop    string
}

// ListLiteral is [e1, e2, ...].
type ListLiteral struct{ Elems []Expr }

// MapLiteral is {k1: e1, ...} with deterministic key order preserved.
type MapLiteral struct {
	Keys  []string
	Elems []Expr
}

// IndexExpr is subject[index] or subject[from..to] (slice when IsSlice).
type IndexExpr struct {
	Subject Expr
	Index   Expr // nil in a slice with open lower bound
	To      Expr // slice upper bound; nil when open
	IsSlice bool
}

// Unary is NOT x or -x or +x.
type Unary struct {
	Op   string // "NOT", "-", "+"
	Expr Expr
}

// Binary is a binary operation. Op is one of:
// + - * / % ^ = <> < <= > >= AND OR XOR IN CONTAINS STARTSWITH ENDSWITH =~
type Binary struct {
	Op    string
	Left  Expr
	Right Expr
}

// IsNull is x IS NULL / x IS NOT NULL.
type IsNull struct {
	Expr   Expr
	Negate bool
}

// FuncCall is name(args...); Distinct marks count(DISTINCT x) etc.
// Star marks count(*).
type FuncCall struct {
	Name     string // lowercased
	Args     []Expr
	Distinct bool
	Star     bool
}

// CaseExpr covers both simple CASE x WHEN v THEN r and searched
// CASE WHEN pred THEN r forms; Subject is nil for the searched form.
type CaseExpr struct {
	Subject Expr
	Whens   []Expr
	Thens   []Expr
	Else    Expr
}

// ListComprehension is [var IN list WHERE pred | proj].
type ListComprehension struct {
	Var   string
	List  Expr
	Where Expr // nil when absent
	Proj  Expr // nil means the variable itself
	slot  int
}

// QuantifiedExpr is any/all/none/single(var IN list WHERE pred).
type QuantifiedExpr struct {
	Kind  string // "any", "all", "none", "single"
	Var   string
	List  Expr
	Where Expr
	slot  int
}

// ExistsExpr is exists((pattern)) / exists(prop) — pattern existence or
// property existence.
type ExistsExpr struct {
	Pattern *Pattern // non-nil for pattern form
	Prop    Expr     // non-nil for property form
}

// PatternExpr is a bare pattern used as a predicate, e.g.
// WHERE (a)-[:PEERS_WITH]-(b). Evaluates to true when a match exists.
type PatternExpr struct{ Pattern *Pattern }

func (*Literal) exprNode()           {}
func (*Variable) exprNode()          {}
func (*Parameter) exprNode()         {}
func (*PropertyAccess) exprNode()    {}
func (*ListLiteral) exprNode()       {}
func (*MapLiteral) exprNode()        {}
func (*IndexExpr) exprNode()         {}
func (*Unary) exprNode()             {}
func (*Binary) exprNode()            {}
func (*IsNull) exprNode()            {}
func (*FuncCall) exprNode()          {}
func (*CaseExpr) exprNode()          {}
func (*ListComprehension) exprNode() {}
func (*QuantifiedExpr) exprNode()    {}
func (*ExistsExpr) exprNode()        {}
func (*PatternExpr) exprNode()       {}

// ExprString renders an expression back to Cypher-like text. It is used
// for default column names and error messages; round-trip fidelity is
// best-effort, not guaranteed token-for-token.
func ExprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *Literal:
		switch v := x.Value.(type) {
		case nil:
			b.WriteString("null")
		case string:
			b.WriteString(strconv.Quote(v))
		case bool:
			b.WriteString(strconv.FormatBool(v))
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	case *Variable:
		b.WriteString(x.Name)
	case *Parameter:
		b.WriteByte('$')
		b.WriteString(x.Name)
	case *PropertyAccess:
		writeExpr(b, x.Subject)
		b.WriteByte('.')
		b.WriteString(x.Prop)
	case *ListLiteral:
		b.WriteByte('[')
		for i, e := range x.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, e)
		}
		b.WriteByte(']')
	case *MapLiteral:
		b.WriteByte('{')
		for i, k := range x.Keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k)
			b.WriteString(": ")
			writeExpr(b, x.Elems[i])
		}
		b.WriteByte('}')
	case *IndexExpr:
		writeExpr(b, x.Subject)
		b.WriteByte('[')
		if x.IsSlice {
			if x.Index != nil {
				writeExpr(b, x.Index)
			}
			b.WriteString("..")
			if x.To != nil {
				writeExpr(b, x.To)
			}
		} else {
			writeExpr(b, x.Index)
		}
		b.WriteByte(']')
	case *Unary:
		if x.Op == "NOT" {
			b.WriteString("NOT ")
		} else {
			b.WriteString(x.Op)
		}
		writeExpr(b, x.Expr)
	case *Binary:
		writeExpr(b, x.Left)
		op := x.Op
		switch op {
		case "STARTSWITH":
			op = "STARTS WITH"
		case "ENDSWITH":
			op = "ENDS WITH"
		}
		b.WriteByte(' ')
		b.WriteString(op)
		b.WriteByte(' ')
		writeExpr(b, x.Right)
	case *IsNull:
		writeExpr(b, x.Expr)
		if x.Negate {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *FuncCall:
		b.WriteString(x.Name)
		b.WriteByte('(')
		if x.Star {
			b.WriteByte('*')
		} else {
			if x.Distinct {
				b.WriteString("DISTINCT ")
			}
			for i, a := range x.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				writeExpr(b, a)
			}
		}
		b.WriteByte(')')
	case *CaseExpr:
		b.WriteString("CASE")
		if x.Subject != nil {
			b.WriteByte(' ')
			writeExpr(b, x.Subject)
		}
		for i := range x.Whens {
			b.WriteString(" WHEN ")
			writeExpr(b, x.Whens[i])
			b.WriteString(" THEN ")
			writeExpr(b, x.Thens[i])
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			writeExpr(b, x.Else)
		}
		b.WriteString(" END")
	case *ListComprehension:
		b.WriteByte('[')
		b.WriteString(x.Var)
		b.WriteString(" IN ")
		writeExpr(b, x.List)
		if x.Where != nil {
			b.WriteString(" WHERE ")
			writeExpr(b, x.Where)
		}
		if x.Proj != nil {
			b.WriteString(" | ")
			writeExpr(b, x.Proj)
		}
		b.WriteByte(']')
	case *QuantifiedExpr:
		b.WriteString(x.Kind)
		b.WriteByte('(')
		b.WriteString(x.Var)
		b.WriteString(" IN ")
		writeExpr(b, x.List)
		b.WriteString(" WHERE ")
		writeExpr(b, x.Where)
		b.WriteByte(')')
	case *ExistsExpr:
		b.WriteString("exists(")
		if x.Pattern != nil {
			b.WriteString(PatternString(x.Pattern))
		} else {
			writeExpr(b, x.Prop)
		}
		b.WriteByte(')')
	case *PatternExpr:
		b.WriteString(PatternString(x.Pattern))
	}
}

// PatternString renders a pattern back to Cypher text.
func PatternString(p *Pattern) string {
	var b strings.Builder
	if p.PathVar != "" {
		b.WriteString(p.PathVar)
		b.WriteString(" = ")
	}
	for i, n := range p.Nodes {
		writeNodePattern(&b, n)
		if i < len(p.Rels) {
			writeRelPattern(&b, p.Rels[i])
		}
	}
	return b.String()
}

func writeNodePattern(b *strings.Builder, n *NodePattern) {
	b.WriteByte('(')
	b.WriteString(n.Var)
	for _, l := range n.Labels {
		b.WriteByte(':')
		b.WriteString(l)
	}
	if len(n.Props) > 0 {
		if n.Var != "" || len(n.Labels) > 0 {
			b.WriteByte(' ')
		}
		writePropMap(b, n.Props)
	}
	b.WriteByte(')')
}

func writeRelPattern(b *strings.Builder, r *RelPattern) {
	if r.Direction == DirLeft {
		b.WriteString("<-")
	} else {
		b.WriteString("-")
	}
	hasBody := r.Var != "" || len(r.Types) > 0 || len(r.Props) > 0 || r.VarLength != nil
	if hasBody {
		b.WriteByte('[')
		b.WriteString(r.Var)
		for i, t := range r.Types {
			if i == 0 {
				b.WriteByte(':')
			} else {
				b.WriteByte('|')
			}
			b.WriteString(t)
		}
		if r.VarLength != nil {
			b.WriteByte('*')
			if !(r.VarLength.Min == 1 && r.VarLength.Max < 0) {
				b.WriteString(strconv.Itoa(r.VarLength.Min))
				b.WriteString("..")
				if r.VarLength.Max >= 0 {
					b.WriteString(strconv.Itoa(r.VarLength.Max))
				}
			}
		}
		if len(r.Props) > 0 {
			b.WriteByte(' ')
			writePropMap(b, r.Props)
		}
		b.WriteByte(']')
	}
	if r.Direction == DirRight {
		b.WriteString("->")
	} else {
		b.WriteString("-")
	}
}

func writePropMap(b *strings.Builder, props map[string]Expr) {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	// Deterministic rendering.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString(": ")
		writeExpr(b, props[k])
	}
	b.WriteByte('}')
}

// Complexity measures the structural complexity of a parsed query. The
// simulated LLM's failure model and the benchmark's difficulty
// calibration both key off this: hops counts relationship traversals
// (variable-length patterns count as their minimum span, at least 2),
// Aggregations counts aggregate function applications, and Clauses the
// number of top-level clauses.
type Complexity struct {
	Hops         int
	Aggregations int
	Clauses      int
	VarLength    bool
	HasOrderBy   bool
	HasWhere     bool
}

// Score collapses the complexity profile into one ordinal used by the
// failure model: higher means structurally harder.
func (c Complexity) Score() int {
	s := c.Hops + 2*c.Aggregations + (c.Clauses - 1)
	if c.VarLength {
		s += 3
	}
	if c.HasOrderBy {
		s++
	}
	if c.HasWhere {
		s++
	}
	return s
}

// MeasureComplexity computes the Complexity of a parsed query.
func MeasureComplexity(q *Query) Complexity {
	var c Complexity
	c.Clauses = len(q.Clauses)
	for _, cl := range q.Clauses {
		switch x := cl.(type) {
		case *MatchClause:
			for _, p := range x.Patterns {
				for _, r := range p.Rels {
					if r.VarLength != nil {
						c.VarLength = true
						span := r.VarLength.Min
						if span < 2 {
							span = 2
						}
						c.Hops += span
					} else {
						c.Hops++
					}
				}
			}
			if x.Where != nil {
				c.HasWhere = true
			}
		case *WithClause:
			c.Aggregations += countAggregates(x.Items)
			if len(x.OrderBy) > 0 {
				c.HasOrderBy = true
			}
		case *ReturnClause:
			c.Aggregations += countAggregates(x.Items)
			if len(x.OrderBy) > 0 {
				c.HasOrderBy = true
			}
		}
	}
	return c
}

func countAggregates(items []*ReturnItem) int {
	n := 0
	for _, it := range items {
		if it.Expr != nil && containsAggregate(it.Expr) {
			n++
		}
	}
	return n
}
