package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"chatiyp/client"
	"chatiyp/internal/api"
	"chatiyp/internal/cypher"
	"chatiyp/internal/cyphereval"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
)

// Workload names, as passed to -workload.
const (
	wlAsk     = "ask"
	wlAnalyst = "analyst"
	wlRefresh = "refresh"
)

// opKind is one kind of user-level operation. An agent conversation is
// one operation of four HTTP calls.
type opKind int

const (
	opAsk    opKind = iota // POST /v1/ask
	opPoint                // parameterized point lookup, /v1/cypher JSON
	opScan                 // analytic query, /v1/cypher JSON
	opStream               // analytic query, /v1/cypher NDJSON read to the end
	opAgent                // session/create → search_entities → run_cypher(bind) → session/delete
	opWrite                // crawler-style write on /v1/cypher (refresh writer)
	numOpKinds
)

var opNames = [numOpKinds]string{"ask", "point", "scan_json", "scan_ndjson", "agent", "write"}

func (k opKind) String() string { return opNames[k] }

// op is one operation: its kind and an index into the fixture list of
// that kind.
type op struct {
	kind opKind
	idx  int
}

// rowSet is a result in canonical form: each row is its JSON encoding,
// so rows decoded from the wire and rows computed in-process compare
// equal. Unordered sets compare as multisets.
type rowSet struct {
	rows    []string
	ordered bool
	limited bool // the query has a LIMIT
}

func canonicalRows(rows [][]graph.Value, ordered bool) (rowSet, error) {
	out := rowSet{rows: make([]string, len(rows)), ordered: ordered}
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return rowSet{}, fmt.Errorf("encoding row: %w", err)
		}
		out.rows[i] = string(b)
	}
	if !ordered {
		sort.Strings(out.rows)
	}
	return out, nil
}

// matches reports whether rows (as returned by the server) equal the set.
func (s rowSet) matches(rows [][]graph.Value) bool {
	got, err := canonicalRows(rows, s.ordered)
	if err != nil || len(got.rows) != len(s.rows) {
		return false
	}
	for i := range got.rows {
		if got.rows[i] != s.rows[i] {
			return false
		}
	}
	return true
}

// sameResult is the check for an answer's rows against an in-process
// run of the same Cypher: equal as multisets, since ties under ORDER BY
// leave the order open, and equal in number only when the query has a
// LIMIT, since ties at the cut leave open which rows are kept.
func (s rowSet) sameResult(rows [][]graph.Value) bool {
	if s.limited {
		return len(rows) == len(s.rows)
	}
	unordered := rowSet{rows: s.rows}
	if s.ordered {
		unordered.rows = append([]string(nil), s.rows...)
		sort.Strings(unordered.rows)
	}
	return unordered.matches(rows)
}

// ordersRows reports whether a query fixes its row order.
func ordersRows(query string) bool {
	return strings.Contains(strings.ToUpper(query), "ORDER BY")
}

// cypherCase is one read query with the rows it must return.
type cypherCase struct {
	query  string
	params map[string]any
	want   rowSet
}

// question is one ask-pool entry: the text and its gold query's rows.
type question struct {
	text string
	gold rowSet
}

// agentCase is one agent conversation: an entity search, then a Cypher
// query whose $asn parameter is bound to the top hit's key property.
type agentCase struct {
	search api.SearchEntitiesParams
	query  string
}

// writeOp is one crawler-style write and the effect it must report.
type writeOp struct {
	query  string
	params map[string]any
	want   api.WriteStats
	// setASN/seq record a property SET; relA/relB/seq a relationship
	// CREATE (create) or DELETE (!create).
	setASN     int64
	relA, relB int64
	seq        int64
	create     bool
}

// fixtures holds every input a workload draws from, derived from the
// default dataset and the workload seed before the measured window.
type fixtures struct {
	g         *graph.Graph
	world     *iyp.World
	questions []question
	points    []cypherCase
	analytics []cypherCase
	agents    []agentCase
	writes    []writeOp
	// populationSynced counts POPULATION relationships whose figures
	// differed from the server's copy of the dataset.
	populationSynced int
}

// The read pools are drawn once, from poolSeed; the workload seed picks
// the sequence of operations drawn from them and the writer's pool.
// Keeping the pools fixed keeps the mix of costs the same from seed to
// seed, so seeds differ in order, not in the work they ask for.
const (
	poolSeed = 20240601 // the CypherEval generator's default seed

	questionsPerTemplate = 20  // × 36 templates → several hundred questions
	pointCases           = 256 // parameterized point lookups
	agentCases           = 64
)

// Point-lookup query shapes; each takes one parameter.
var pointQueries = []struct{ query, param string }{
	{"MATCH (a:AS {asn: $asn})-[:NAME]->(n:Name) RETURN n.name", "asn"},
	{"MATCH (a:AS {asn: $asn})-[:COUNTRY]->(c:Country) RETURN c.country_code", "asn"},
	{"MATCH (a:AS {asn: $asn})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix ORDER BY p.prefix", "asn"},
	{"MATCH (a:AS {asn: $asn})-[:MEMBER_OF]->(x:IXP) RETURN x.name ORDER BY x.name", "asn"},
	{"MATCH (p:Prefix {prefix: $prefix})<-[:ORIGINATE]-(a:AS) RETURN a.asn", "prefix"},
	{"MATCH (c:Country {country_code: $cc})<-[:COUNTRY]-(a:AS) RETURN count(a)", "cc"},
}

// Analytic queries: a label scan, a per-country aggregation, a 2-hop
// expansion and an ORDER BY … LIMIT top-K, each anchored on more rows
// than the executor's 256-row parallel threshold. None reads what the
// refresh writer changes (AS.last_seen, PEERS_WITH).
var analyticQueries = []struct {
	query  string
	params []map[string]any
}{
	{"MATCH (p:Prefix) WHERE p.af = $af RETURN p.prefix",
		[]map[string]any{{"af": 4}, {"af": 6}}},
	{"MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN c.country_code AS cc, count(a) AS n ORDER BY n DESC, cc LIMIT $k",
		[]map[string]any{{"k": 10}, {"k": 60}}},
	{"MATCH (a:AS)-[:DEPENDS_ON]->(b:AS)-[:MEMBER_OF]->(x:IXP) RETURN x.name AS ixp, count(DISTINCT a) AS n ORDER BY n DESC, ixp LIMIT $k",
		[]map[string]any{{"k": 10}, {"k": 40}}},
	{"MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a.asn AS asn, count(p) AS n ORDER BY n DESC, asn LIMIT $k",
		[]map[string]any{{"k": 10}, {"k": 100}}},
}

const agentQuery = "MATCH (a:AS {asn: toInteger($asn)})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix ORDER BY p.prefix"

// Refresh writes: property SETs on existing ASes and PEERS_WITH
// relationships created and deleted in pairs, so the graph keeps its
// size. The verification queries read back everything the writer
// touched.
const (
	writeSet    = "MATCH (a:AS {asn: $asn}) SET a.last_seen = $seq RETURN a.asn"
	writeCreate = "MATCH (a:AS {asn: $a}), (b:AS {asn: $b}) CREATE (a)-[:PEERS_WITH {feed_seq: $seq}]->(b)"
	writeDelete = "MATCH (:AS {asn: $a})-[r:PEERS_WITH {feed_seq: $seq}]->(:AS {asn: $b}) DELETE r"
	verifySets  = "MATCH (a:AS) WHERE a.last_seen IS NOT NULL RETURN a.asn, a.last_seen"
	verifyRels  = "MATCH (a:AS)-[r:PEERS_WITH]->(b:AS) WHERE r.feed_seq IS NOT NULL RETURN a.asn, b.asn, r.feed_seq"
)

// buildFixtures generates the default dataset (the server builds the
// same one) and the workload's seeded pools, with reference rows
// computed in-process. nWrites sizes the refresh writer's pool. With a
// server client, the dataset's population figures are first copied
// from the server (see syncPopulation).
func buildFixtures(ctx context.Context, workload string, seed int64, nWrites int, srv *client.Client) (*fixtures, error) {
	g, w, err := iyp.Build(iyp.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("building dataset: %w", err)
	}
	fx := &fixtures{g: g, world: w}
	if srv != nil {
		if fx.populationSynced, err = fx.syncPopulation(ctx, srv); err != nil {
			return nil, err
		}
	}
	pools := rand.New(rand.NewPCG(poolSeed, 0xf1c7))
	switch workload {
	case wlAsk:
		err = fx.addQuestions()
	case wlAnalyst:
		if err = fx.addPoints(pools); err == nil {
			if err = fx.addAnalytics(); err == nil {
				fx.addAgents(pools)
			}
		}
	case wlRefresh:
		if err = fx.addPoints(pools); err == nil {
			err = fx.addAnalytics()
		}
		fx.addWrites(rand.New(rand.NewPCG(uint64(seed), 0x3717e)), nWrites)
	default:
		err = fmt.Errorf("unknown workload %q (want ask, analyst or refresh)", workload)
	}
	if err != nil {
		return nil, err
	}
	return fx, nil
}

// reference executes a query in-process with its parameters decoded the
// way the server decodes them from a JSON body.
func (fx *fixtures) reference(query string, params map[string]any) (rowSet, error) {
	res, err := cypher.Execute(fx.g, query, wireParams(params))
	if err != nil {
		return rowSet{}, fmt.Errorf("reference %q: %w", query, err)
	}
	rs, err := canonicalRows(res.Rows, ordersRows(query))
	rs.limited = strings.Contains(strings.ToUpper(query), " LIMIT ")
	return rs, err
}

// syncPopulation copies the percent and samples of every POPULATION
// relationship from the server into the reference graph and returns how
// many differed. The dataset generator does not repeat these two
// figures from one build to the next (every other node and relationship
// property does repeat), so without the copy a reference would disagree
// with the server on any query that reads them.
func (fx *fixtures) syncPopulation(ctx context.Context, srv *client.Client) (int, error) {
	const q = "MATCH (a:AS)-[p:POPULATION]->(c:Country) RETURN a.asn, c.country_code, p.percent, p.samples"
	res, err := srv.Query(ctx, q, nil)
	if err != nil {
		return 0, fmt.Errorf("reading the server's population figures: %w", err)
	}
	key := func(asn, cc any) string { return fmt.Sprint(asn, "/", cc) }
	served := make(map[string][]graph.Value, len(res.Rows))
	for _, row := range res.Rows {
		served[key(row[0], row[1])] = row[2:]
	}
	var rels []*graph.Relationship
	fx.g.ForEachRelationship(func(r *graph.Relationship) bool {
		if r.Type == iyp.RelPopulation {
			rels = append(rels, r)
		}
		return true
	})
	if len(rels) != len(served) {
		return 0, fmt.Errorf("server has %d POPULATION relationships, the reference graph %d", len(served), len(rels))
	}
	changed := 0
	for _, r := range rels {
		asn, _ := graph.AsFloat(fx.g.Node(r.StartID).Prop("asn"))
		v, ok := served[key(asn, fx.g.Node(r.EndID).Prop("country_code"))]
		if !ok {
			return 0, fmt.Errorf("server lacks the POPULATION relationship %d", r.ID)
		}
		percent, _ := graph.AsFloat(v[0])
		samples, _ := graph.AsFloat(v[1])
		if old, _ := graph.AsFloat(r.Prop("percent")); old == percent {
			continue
		}
		changed++
		if err := errors.Join(fx.g.SetRelProp(r.ID, "percent", percent),
			fx.g.SetRelProp(r.ID, "samples", int64(samples))); err != nil {
			return 0, err
		}
	}
	return changed, nil
}

func wireParams(params map[string]any) map[string]any {
	if params == nil {
		return nil
	}
	b, err := json.Marshal(params)
	if err != nil {
		panic(err) // fixture parameters are plain numbers and strings
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return out
}

func (fx *fixtures) addQuestions() error {
	bench, err := cyphereval.Generate(fx.g, fx.world, cyphereval.GenConfig{
		Seed: poolSeed, PerTemplate: questionsPerTemplate, RequireNonEmpty: true,
	})
	if err != nil {
		return err
	}
	for _, q := range bench.Questions {
		gold, err := fx.reference(q.GoldCypher, nil)
		if err != nil {
			return err
		}
		fx.questions = append(fx.questions, question{text: q.Text, gold: gold})
	}
	return nil
}

func (fx *fixtures) addPoints(rng *rand.Rand) error {
	for range pointCases {
		pq := pointQueries[rng.IntN(len(pointQueries))]
		as := &fx.world.ASes[rng.IntN(len(fx.world.ASes))]
		var v any
		switch pq.param {
		case "asn":
			v = as.ASN
		case "prefix":
			if len(as.Prefixes) == 0 {
				v = "0.0.0.0/0"
			} else {
				v = as.Prefixes[rng.IntN(len(as.Prefixes))]
			}
		case "cc":
			v = as.Country.Code
		}
		params := map[string]any{pq.param: v}
		want, err := fx.reference(pq.query, params)
		if err != nil {
			return err
		}
		fx.points = append(fx.points, cypherCase{query: pq.query, params: params, want: want})
	}
	return nil
}

func (fx *fixtures) addAnalytics() error {
	for _, aq := range analyticQueries {
		for _, params := range aq.params {
			want, err := fx.reference(aq.query, params)
			if err != nil {
				return err
			}
			fx.analytics = append(fx.analytics, cypherCase{query: aq.query, params: params, want: want})
		}
	}
	return nil
}

func (fx *fixtures) addAgents(rng *rand.Rand) {
	for range agentCases {
		as := &fx.world.ASes[rng.IntN(len(fx.world.ASes))]
		fx.agents = append(fx.agents, agentCase{
			search: api.SearchEntitiesParams{Query: as.Name + " autonomous system", K: 5, Kind: iyp.LabelAS},
			query:  agentQuery,
		})
	}
}

// addWrites fills the writer's pool: two SETs, then a CREATE and the
// DELETE of that same relationship, repeated.
func (fx *fixtures) addWrites(rng *rand.Rand, n int) {
	ases := fx.world.ASes
	var relA, relB int64
	for i := range n {
		seq := int64(i + 1)
		switch i % 4 {
		case 0, 1:
			asn := ases[rng.IntN(len(ases))].ASN
			fx.writes = append(fx.writes, writeOp{
				query: writeSet, params: map[string]any{"asn": asn, "seq": seq},
				want: api.WriteStats{PropertiesSet: 1}, setASN: asn, seq: seq,
			})
		case 2:
			a := rng.IntN(len(ases))
			b := (a + 1 + rng.IntN(len(ases)-1)) % len(ases)
			relA, relB = ases[a].ASN, ases[b].ASN
			fx.writes = append(fx.writes, writeOp{
				query: writeCreate, params: map[string]any{"a": relA, "b": relB, "seq": seq},
				want: api.WriteStats{RelationshipsCreated: 1, PropertiesSet: 1}, relA: relA, relB: relB, seq: seq, create: true,
			})
		case 3:
			prev := seq - 1
			fx.writes = append(fx.writes, writeOp{
				query: writeDelete, params: map[string]any{"a": relA, "b": relB, "seq": prev},
				want: api.WriteStats{RelationshipsDeleted: 1}, relA: relA, relB: relB, seq: prev,
			})
		}
	}
}

// opGen draws one client's operations. Each client has its own stream,
// seeded from the workload seed and the client index, so the request
// sequence depends on the seed alone.
//
// Operations are dealt from shuffled decks rather than drawn one by one:
// every 100 operations hold the workload's mix exactly, and each pool
// entry is used once per pass over its pool. Seeds then differ in the
// order of the work, not in how much of each kind they ask for, which
// independent draws would vary by several percent over a run.
type opGen struct {
	rng   *rand.Rand
	kinds deck             // operation kinds, in the workload's mix
	pools [numOpKinds]deck // indices into each kind's pool
}

func newOpGen(fx *fixtures, workload string, seed int64, client int) *opGen {
	g := &opGen{rng: rand.New(rand.NewPCG(uint64(seed), uint64(client)+1))}
	for k, share := range opMix(workload) {
		for range share {
			g.kinds.items = append(g.kinds.items, k)
		}
	}
	sizes := [numOpKinds]int{opAsk: len(fx.questions), opPoint: len(fx.points),
		opScan: len(fx.analytics), opStream: len(fx.analytics), opAgent: len(fx.agents)}
	for k, n := range sizes {
		for i := range n {
			g.pools[k].items = append(g.pools[k].items, i)
		}
	}
	return g
}

// opMix is a workload's operation mix, in percent. analyst: point 40,
// scan JSON 20, scan NDJSON 20, agent 20. The refresh reader has no
// agent conversations: point 30, scan JSON 35, scan NDJSON 35. Point
// lookups take under a millisecond and scans several, so a mix near
// half and half would put the read median in the gap between the two,
// where it jumps with the smallest shift in either; each mix keeps the
// median inside one kind that does milliseconds of work (agent
// conversations, scans), whose latency moves less than a
// sub-millisecond lookup's when the host steals CPU time.
func opMix(workload string) [numOpKinds]int {
	switch workload {
	case wlAsk:
		return [numOpKinds]int{opAsk: 100}
	case wlRefresh:
		return [numOpKinds]int{opPoint: 30, opScan: 35, opStream: 35}
	default:
		return [numOpKinds]int{opPoint: 40, opScan: 20, opStream: 20, opAgent: 20}
	}
}

func (g *opGen) next() op {
	k := opKind(g.kinds.deal(g.rng))
	return op{k, g.pools[k].deal(g.rng)}
}

// deck deals its items in a random order, reshuffling after each pass.
type deck struct {
	items []int
	next  int
}

func (d *deck) deal(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.items), func(i, j int) { d.items[i], d.items[j] = d.items[j], d.items[i] })
	}
	v := d.items[d.next]
	d.next = (d.next + 1) % len(d.items)
	return v
}
