package cypher

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"chatiyp/internal/graph"
)

// Recorded-output oracle. The files under testdata/ hold the outputs
// of the clause-at-a-time materializing executor this package used to
// keep next to the streaming pipeline, recorded before it was deleted.
// The single executor is held to them exactly: columns, row order,
// value types (int64 and float64 stay distinct), write stats, error
// text, and for write queries the graph state afterwards.
//
//   - testdata/recorded_reads.json maps a test name to the outputs of
//     its checkRecorded calls, in call order.
//   - testdata/recorded_writes.json holds one output per writeCorpus
//     entry, each run on a fresh fixture.

// recorded is one recorded execution outcome.
type recorded struct {
	Query     string     `json:"query"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Stats     WriteStats `json:"stats"`
	Truncated bool       `json:"truncated,omitempty"`
	Error     string     `json:"error,omitempty"`
	State     []string   `json:"state,omitempty"`
}

// writeCase is one query of the write corpus.
type writeCase struct {
	query  string
	params map[string]any
	opts   Options
}

// writeCorpus covers every write clause on the fixture graph: CREATE,
// CREATE from MATCH, MERGE with ON CREATE / ON MATCH, SET and REMOVE
// of properties and labels, DELETE and DETACH DELETE, UNWIND+CREATE,
// later clauses reading the query's own writes, writes under LIMIT and
// RowLimit (every write still applies), writes in UNION parts, MaxRows
// overflow into a write, and the write errors.
var writeCorpus = []writeCase{
	// CREATE.
	{query: "CREATE (n:Thing {name: 'a', v: 1})"},
	{query: "CREATE (n:Thing {name: 'a', v: 1.5, tags: ['x', 'y']}) RETURN n, n.name, n.v, id(n)"},
	{query: "CREATE (a:X {k: 1})-[r:R {w: 2}]->(b:Y) RETURN a, r, b"},
	{query: "CREATE (a:X)<-[r:R]-(b:Y) RETURN startNode(r) = b, endNode(r) = a"},
	{query: "UNWIND [1, 2] AS i CREATE (a:Pair {i: i})-[:NEXT {i: i}]->(b:Pair {i: i * 10}) RETURN a.i, b.i"},
	{query: "CREATE (a:X), (b:Y) RETURN labels(a), labels(b)"},
	{query: "CREATE (n:P {v: $v, s: $s}) RETURN n.v, n.s", params: map[string]any{"v": 3, "s": "p"}},
	{query: "CREATE (a:S {k: 1}) RETURN *"},
	// CREATE from MATCH.
	{query: "MATCH (a:AS) CREATE (a)-[:TAGGED]->(t:Tag {asn: a.asn}) RETURN a.asn, t.asn ORDER BY a.asn"},
	{query: "MATCH (a:AS {asn: 2497}), (c:Country {country_code: 'US'}) CREATE (a)-[r:COUNTRY]->(c) RETURN type(r), c.name"},
	{query: "MATCH (a:AS) CREATE (b:Copy {asn: a.asn}) WITH b ORDER BY b.asn RETURN collect(b.asn)"},
	// MERGE.
	{query: "MERGE (c:Country {country_code: 'JP'}) ON CREATE SET c.created = true ON MATCH SET c.seen = 1 RETURN c.name, c.seen, c.created"},
	{query: "MERGE (c:Country {country_code: 'FR'}) ON CREATE SET c.created = true ON MATCH SET c.seen = 1 RETURN c.country_code, c.seen, c.created"},
	{query: "UNWIND ['JP', 'FR', 'FR', 'DE'] AS cc MERGE (c:Country {country_code: cc}) ON CREATE SET c.n = 1 ON MATCH SET c.n = coalesce(c.n, 0) + 1 RETURN cc, c.n"},
	{query: "MATCH (a:AS {asn: 64500}), (b:AS {asn: 15169}) MERGE (a)-[r:PEERS_WITH]->(b) RETURN type(r)"},
	{query: "MATCH (a:AS {asn: 2497}), (b:AS {asn: 15169}) MERGE (a)-[r:PEERS_WITH]->(b) RETURN id(r)"},
	{query: "MATCH (a:AS) MERGE (a)-[:COUNTRY]->(c:Country) RETURN a.asn, c.country_code ORDER BY a.asn"},
	{query: "MERGE (x:Z {k: 1}) WITH x MATCH (z:Z) RETURN count(z)"},
	// SET.
	{query: "MATCH (a:AS) SET a.seen = true, a.rank = a.asn % 7 RETURN a.asn, a.seen, a.rank ORDER BY a.asn"},
	{query: "MATCH (a:AS {asn: 2497}) SET a:Tier1 RETURN labels(a)"},
	{query: "MATCH (:AS)-[r:ORIGINATE]->(p) SET r.count = r.count * 2 RETURN sum(r.count)"},
	{query: "MATCH (p:Prefix) SET p.af = 6.0 RETURN p.af"},
	{query: "OPTIONAL MATCH (x:Nope) SET x.a = 1 RETURN x"},
	// REMOVE.
	{query: "MATCH (a:AS {asn: 2497}) REMOVE a.name RETURN a.name, keys(a)"},
	{query: "MATCH (a:AS) SET a:Tmp WITH a REMOVE a:Tmp RETURN count(a)"},
	{query: "MATCH (c:Country) REMOVE c:Country RETURN count(c)"},
	{query: "MATCH ()-[r:ORIGINATE]->() REMOVE r.count RETURN count(r)"},
	// DELETE and DETACH DELETE.
	{query: "MATCH (a:AS {asn: 64500}) DELETE a"},
	{query: "MATCH (a:AS {asn: 64500}) DETACH DELETE a RETURN a.asn"},
	{query: "MATCH ()-[r:ORIGINATE]->() DELETE r RETURN count(r)"},
	{query: "MATCH (x:IXP) DETACH DELETE x"},
	{query: "MATCH (a:AS)-[:COUNTRY]->(c:Country {country_code: 'JP'}) DETACH DELETE c RETURN count(*)"},
	{query: "MATCH (p:Prefix) DETACH DELETE p RETURN count(p)"},
	// UNWIND + CREATE.
	{query: "UNWIND range(1, 5) AS i CREATE (:N {i: i})"},
	{query: "UNWIND [1, 2, 3] AS i CREATE (n:N {i: i}) RETURN n.i ORDER BY n.i DESC"},
	// Later clauses read the query's own writes.
	{query: "CREATE (a:Fresh {v: 1}) WITH a MATCH (f:Fresh) RETURN count(f), a.v"},
	{query: "UNWIND [1, 2] AS i CREATE (:Fresh {i: i}) WITH count(*) AS c MATCH (f:Fresh) RETURN c, collect(f.i)"},
	{query: "MATCH (a:AS) SET a.flag = 1 WITH count(a) AS n MATCH (b:AS) WHERE b.flag = 1 RETURN n, count(b)"},
	{query: "MATCH (a:AS) WITH a ORDER BY a.asn DESC LIMIT 1 SET a.top = true WITH a MATCH (t:AS) WHERE t.top RETURN t.asn"},
	{query: "MATCH (a:AS {asn: 64500}) DETACH DELETE a WITH count(*) AS d MATCH (b:AS) RETURN d, count(b)"},
	// A write plus RETURN ... LIMIT: every write still applies.
	{query: "UNWIND range(1, 4) AS i CREATE (n:L {i: i}) RETURN n.i LIMIT 1"},
	{query: "MATCH (a:AS) SET a.touched = true RETURN a.asn ORDER BY a.asn LIMIT 1"},
	{query: "UNWIND range(1, 4) AS i CREATE (n:L {i: i}) RETURN n.i LIMIT 0"},
	// A write plus RowLimit: 1.
	{query: "UNWIND range(1, 4) AS i CREATE (n:L {i: i}) RETURN n.i", opts: Options{RowLimit: 1}},
	{query: "CREATE (a:U1) RETURN 1 AS x UNION ALL CREATE (b:U2) RETURN 2 AS x", opts: Options{RowLimit: 1}},
	// Writes in UNION parts.
	{query: "CREATE (a:X) RETURN 1 AS n UNION ALL CREATE (b:Y) RETURN 2 AS n"},
	{query: "CREATE (a:X) RETURN 1 AS n UNION CREATE (b:X) RETURN 1 AS n"},
	{query: "MATCH (c:Country) RETURN count(c) AS n UNION ALL CREATE (:Country {country_code: 'XX'}) RETURN 0 AS n UNION ALL MATCH (c:Country) RETURN count(c) AS n"},
	{query: "CREATE (:A1) UNION CREATE (:A2)"},
	// MaxRows overflow in a write query.
	{query: "UNWIND range(1, 10) AS i CREATE (:M {i: i})", opts: Options{MaxRows: 5}},
	{query: "MATCH (a:AS), (b:AS) CREATE (a)-[:X]->(b)", opts: Options{MaxRows: 5}},
	{query: "CREATE (:M) WITH 1 AS one UNWIND range(1, 10) AS i CREATE (:M {i: i})", opts: Options{MaxRows: 5}},
	{query: "UNWIND [1, 2] AS i MERGE (c:Country) ON MATCH SET c.hit = i RETURN c.hit", opts: Options{MaxRows: 3}},
	// MaxRows bounds each clause, not the rows of all UNION parts
	// together (found by differential fuzzing).
	{query: "MATCH (a:AS) CREATE (a)-[:T]->(:C) RETURN 1 AS v UNION ALL CREATE (:C) RETURN 2 AS v", opts: Options{MaxRows: 3}},
	// Write errors: the clause fails, earlier clauses' writes stay.
	{query: "CREATE (a)-[:R]-(b)"},
	{query: "MATCH (a:AS) SET a.x = 1 WITH a CREATE (a)-[:R]-(b)"},
	{query: "MATCH (a:AS {asn: 2497}) CREATE (a:Extra)"},
	{query: "MERGE (a)-[:R*1..2]->(b)"},
	{query: "MATCH (a:AS) SET zz.a = 1"},
	{query: "UNWIND [1] AS x DELETE x"},
	{query: "MATCH (a:AS {asn: 2497})-[r:COUNTRY]->() SET r:Bad"},
}

// encodeValue renders a value type-exactly: int64 and float64 stay
// distinct, and entities carry their ID, labels or type, and props.
func encodeValue(v graph.Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(x)
	case int64:
		return "int:" + strconv.FormatInt(x, 10)
	case float64:
		return "float:" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "str:" + strconv.Quote(x)
	case []graph.Value:
		parts := make([]string, len(x))
		for i, el := range x {
			parts[i] = encodeValue(el)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case map[string]graph.Value:
		return encodeProps(x)
	case *graph.Node:
		return fmt.Sprintf("node(id=%d labels=%v props=%s)", x.ID, x.Labels, encodeProps(x.Props))
	case *graph.Relationship:
		return fmt.Sprintf("rel(id=%d type=%s start=%d end=%d props=%s)",
			x.ID, x.Type, x.StartID, x.EndID, encodeProps(x.Props))
	case graph.Path:
		parts := make([]string, 0, len(x.Nodes)+len(x.Rels))
		for _, n := range x.Nodes {
			parts = append(parts, encodeValue(n))
		}
		for _, r := range x.Rels {
			parts = append(parts, encodeValue(r))
		}
		return fmt.Sprintf("path(%d nodes, %d rels: %s)", len(x.Nodes), len(x.Rels), strings.Join(parts, ", "))
	}
	return fmt.Sprintf("%T:%v", v, v)
}

func encodeProps(m map[string]graph.Value) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + ": " + encodeValue(m[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// recordOutcome encodes one execution outcome.
func recordOutcome(src string, res *Result, err error) recorded {
	if err != nil {
		return recorded{Query: src, Error: err.Error()}
	}
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = make([]string, len(row))
		for j, v := range row {
			rows[i][j] = encodeValue(v)
		}
	}
	return recorded{Query: src, Columns: res.Columns, Rows: rows, Stats: res.Stats, Truncated: res.Truncated}
}

// graphState encodes every node and relationship of g in ID order.
func graphState(g *graph.Graph) []string {
	var out []string
	nodes := g.AllNodeIDs()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, id := range nodes {
		out = append(out, encodeValue(g.Node(id)))
	}
	rels := g.AllRelationshipIDs()
	sort.Slice(rels, func(i, j int) bool { return rels[i] < rels[j] })
	for _, id := range rels {
		out = append(out, encodeValue(g.Relationship(id)))
	}
	return out
}

func loadRecorded(t testing.TB, name string, into any) {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

var (
	recordedReadsOnce sync.Once
	recordedReads     map[string][]recorded
	recordedSeqMu     sync.Mutex
	recordedSeq       = map[*testing.T]int{}
)

// recordedRead returns the recorded outcome of the n-th checkRecorded
// call of test t.
func recordedRead(t *testing.T, src string) recorded {
	t.Helper()
	recordedReadsOnce.Do(func() { loadRecorded(t, "recorded_reads.json", &recordedReads) })
	recordedSeqMu.Lock()
	n := recordedSeq[t]
	recordedSeq[t] = n + 1
	recordedSeqMu.Unlock()
	cases := recordedReads[t.Name()]
	if n >= len(cases) {
		t.Fatalf("%s: no recorded output for call %d (%s)", t.Name(), n, src)
	}
	if cases[n].Query != src {
		t.Fatalf("%s: call %d runs %q, recorded %q", t.Name(), n, src, cases[n].Query)
	}
	return cases[n]
}

// diffRecorded fails the test unless got matches want exactly.
func diffRecorded(t *testing.T, label string, want, got recorded) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		w, _ := json.MarshalIndent(want, "", "  ")
		g, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("%s: %s\ndiverges from the recorded output\nwant: %s\ngot:  %s", label, want.Query, w, g)
	}
}

// checkRecorded executes src and fails the test unless the outcome
// matches the recorded one for this call exactly. It returns the
// result, or nil when the query errs.
func checkRecorded(t *testing.T, g *graph.Graph, src string, params map[string]any, opts Options) *Result {
	t.Helper()
	want := recordedRead(t, src)
	res, err := ExecuteWith(g, src, params, opts)
	diffRecorded(t, "Execute", want, recordOutcome(src, res, err))
	return res
}

// TestRecordedWriteCorpus runs each write query on a fresh fixture,
// through Execute and through the Stream API, and checks the result
// and the graph state afterwards against the recorded outputs.
func TestRecordedWriteCorpus(t *testing.T) {
	var want []recorded
	loadRecorded(t, "recorded_writes.json", &want)
	if len(want) != len(writeCorpus) {
		t.Fatalf("recorded %d write cases, corpus has %d", len(want), len(writeCorpus))
	}
	for i, wc := range writeCorpus {
		if want[i].Query != wc.query {
			t.Fatalf("case %d runs %q, recorded %q", i, wc.query, want[i].Query)
		}
		g := fixture(t)
		res, err := ExecuteWith(g, wc.query, wc.params, wc.opts)
		got := recordOutcome(wc.query, res, err)
		got.State = graphState(g)
		diffRecorded(t, "Execute", want[i], got)

		g = fixture(t)
		st, err := ExecuteStreamContext(context.Background(), g, wc.query, wc.params, wc.opts)
		if err == nil {
			res, err = st.drain()
		}
		got = recordOutcome(wc.query, res, err)
		got.State = graphState(g)
		diffRecorded(t, "Stream", want[i], got)
	}
}
