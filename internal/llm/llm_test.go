package llm

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testLexicon() *Lexicon {
	return &Lexicon{
		Countries: map[string]string{
			"japan": "JP", "united states": "US", "germany": "DE", "greece": "GR",
		},
		CountryCodes: map[string]bool{"JP": true, "US": true, "DE": true, "GR": true},
		IXPs:         []string{"FRA-IX", "TYO-CIX"},
		Orgs:         []string{"Aurora Telecom Inc."},
		Tags:         []string{"Transit", "ISP", "Stub"},
		Rankings:     []string{"CAIDA ASRank", "Tranco top 1M"},
	}
}

func sim(t testing.TB) *SimModel {
	t.Helper()
	return NewSim(DefaultSimConfig(testLexicon()))
}

// reliable returns a model whose translation never corrupts, for tests
// asserting the clean query shapes.
func reliable(t testing.TB) *SimModel {
	t.Helper()
	cfg := DefaultSimConfig(testLexicon())
	cfg.ErrorScale = 0
	return NewSim(cfg)
}

func translate(t *testing.T, m *SimModel, q string) string {
	t.Helper()
	resp, err := m.Complete(context.Background(), Request{Task: TaskText2Cypher, Question: q})
	if err != nil {
		t.Fatalf("translate(%q): %v", q, err)
	}
	return resp.Text
}

func TestExtractEntities(t *testing.T) {
	lx := testLexicon()
	e := lx.Extract("What is the percentage of Japan's population in AS2497?")
	if !reflect.DeepEqual(e.ASNs, []int64{2497}) {
		t.Errorf("ASNs = %v", e.ASNs)
	}
	if !reflect.DeepEqual(e.CountryCodes, []string{"JP"}) {
		t.Errorf("countries = %v", e.CountryCodes)
	}

	e = lx.Extract("Which AS originates 192.0.2.0/24?")
	if len(e.Prefixes) != 1 || e.Prefixes[0] != "192.0.2.0/24" {
		t.Errorf("prefixes = %v", e.Prefixes)
	}
	if len(e.IPs) != 0 {
		t.Errorf("CIDR leaked into IPs: %v", e.IPs)
	}

	e = lx.Extract("Does stream.io resolve to 10.1.2.3?")
	if len(e.Domains) != 1 || e.Domains[0] != "stream.io" {
		t.Errorf("domains = %v", e.Domains)
	}
	if len(e.IPs) != 1 || e.IPs[0] != "10.1.2.3" {
		t.Errorf("ips = %v", e.IPs)
	}

	e = lx.Extract("How many members does FRA-IX have?")
	if len(e.IXPs) != 1 || e.IXPs[0] != "FRA-IX" {
		t.Errorf("ixps = %v", e.IXPs)
	}

	e = lx.Extract("ASes with more than 10 prefixes in Germany")
	if len(e.Numbers) != 1 || e.Numbers[0] != 10 {
		t.Errorf("numbers = %v", e.Numbers)
	}
	if len(e.CountryCodes) != 1 || e.CountryCodes[0] != "DE" {
		t.Errorf("countries = %v", e.CountryCodes)
	}
}

func TestExtractASNVariants(t *testing.T) {
	lx := testLexicon()
	for _, q := range []string{
		"name of AS2497", "name of AS 2497", "name of as2497",
		"autonomous system 2497 name", "asn: 2497",
	} {
		e := lx.Extract(q)
		if len(e.ASNs) != 1 || e.ASNs[0] != 2497 {
			t.Errorf("Extract(%q).ASNs = %v", q, e.ASNs)
		}
	}
}

func TestTranslatePaperIntro(t *testing.T) {
	m := reliable(t)
	q := translate(t, m, "What is the percentage of Japan's population in AS2497?")
	for _, want := range []string{"POPULATION", "2497", "'JP'", "percent"} {
		if !strings.Contains(q, want) {
			t.Errorf("query %q missing %q", q, want)
		}
	}
}

func TestTranslateEasyPatterns(t *testing.T) {
	m := reliable(t)
	cases := map[string][]string{
		"What is the name of AS2497?":                   {"NAME", "n.name"},
		"In which country is AS2497 registered?":        {"COUNTRY", "country_code"},
		"Which organization manages AS2497?":            {"MANAGED_BY", "o.name"},
		"How many ASes are registered in Japan?":        {"count(a)", "'JP'"},
		"How many prefixes does AS2497 originate?":      {"ORIGINATE", "count(p)"},
		"Which AS originates 192.0.2.0/24?":             {"ORIGINATE", "192.0.2.0/24", "a.asn"},
		"What is the CAIDA rank of AS2497?":             {"RANK", "CAIDA ASRank"},
		"Which IP does stream.io resolve to?":           {"RESOLVES_TO", "stream.io"},
		"Which IXPs is AS2497 a member of?":             {"MEMBER_OF", "x.name"},
		"How many member networks does FRA-IX have?":    {"MEMBER_OF", "count(a)", "FRA-IX"},
		"Which ASes does AS2497 depend on?":             {"DEPENDS_ON", "b.asn"},
		"Which ASes peer with AS2497?":                  {"PEERS_WITH"},
		"How many IPv6 prefixes does AS2497 originate?": {"af: 6"},
		"How is AS2497 categorized?":                    {"CATEGORIZED", "t.label"},
	}
	for q, wants := range cases {
		got := translate(t, m, q)
		for _, want := range wants {
			if !strings.Contains(got, want) {
				t.Errorf("translate(%q) = %q, missing %q", q, got, want)
			}
		}
	}
}

func TestTranslateHardPatterns(t *testing.T) {
	m := reliable(t)
	got := translate(t, m, "Which AS serves the largest share of Japan's population?")
	if !strings.Contains(got, "ORDER BY p.percent DESC") || !strings.Contains(got, "LIMIT 1") {
		t.Errorf("superlative query = %q", got)
	}
	got = translate(t, m, "Which ASes in Germany originate more than 10 prefixes?")
	if !strings.Contains(got, "WHERE n > 10") {
		t.Errorf("threshold query = %q", got)
	}
	got = translate(t, m, "At which IXPs do AS2497 and AS15169 both peer?")
	if !strings.Contains(got, "MEMBER_OF") || !strings.Contains(got, "2497") || !strings.Contains(got, "15169") {
		t.Errorf("intersection query = %q", got)
	}
}

func TestTranslateUnknownQuestionFails(t *testing.T) {
	m := sim(t)
	_, err := m.Complete(context.Background(), Request{
		Task:     TaskText2Cypher,
		Question: "What is the meaning of life on the high seas?",
	})
	if !errors.Is(err, ErrNoTranslation) {
		t.Errorf("err = %v, want ErrNoTranslation", err)
	}
}

func TestTranslateDeterministic(t *testing.T) {
	m := sim(t)
	q := "What is the name of AS2497?"
	first := translate(t, m, q)
	for i := 0; i < 5; i++ {
		if got := translate(t, m, q); got != first {
			t.Fatalf("non-deterministic translation: %q vs %q", got, first)
		}
	}
}

func TestErrorScaleControlsCorruption(t *testing.T) {
	// With ErrorScale=0 nothing corrupts; with a huge scale, low-
	// reliability rules corrupt for most questions.
	clean := reliable(t)
	cfg := DefaultSimConfig(testLexicon())
	cfg.ErrorScale = 10
	dirty := NewSim(cfg)
	differs := 0
	questions := []string{
		"Who are the customers of AS2497?",
		"Who are the customers of AS15169?",
		"Who are the customers of AS64500?",
		"Who are the customers of AS3320?",
		"Who are the customers of AS1299?",
		"Who are the customers of AS7018?",
	}
	for _, q := range questions {
		if translate(t, clean, q) != translate(t, dirty, q) {
			differs++
		}
	}
	if differs == 0 {
		t.Error("high error scale never corrupted a low-reliability translation")
	}
}

func TestCorruptProducesParseableCypher(t *testing.T) {
	// Corruptions must stay schema-plausible strings containing MATCH.
	queries := []string{
		"MATCH (:AS {asn: 2497})-[:NAME]->(n:Name) RETURN n.name",
		"MATCH (:AS {asn: 2497})-[p:POPULATION]-(:Country {country_code: 'JP'}) RETURN p.percent",
		"MATCH (a:AS)-[:ORIGINATE]->(:Prefix {prefix: '10.0.0.0/24'}) RETURN a.asn",
		"MATCH (:AS {asn: 1})-[:DEPENDS_ON]->(b:AS) RETURN b.asn",
	}
	for _, q := range queries {
		for h := uint64(0); h < 8; h++ {
			c := corrupt(q, h)
			if !strings.Contains(c, "MATCH") || !strings.Contains(c, "RETURN") {
				t.Errorf("corrupt(%q, %d) = %q lost query structure", q, h, c)
			}
			if c == q {
				t.Errorf("corrupt(%q, %d) did not change the query", q, h)
			}
		}
	}
}

// TestCorruptDeterministic pins corrupt to one output per (query,
// hash): the query below matches several relationship and property
// confusions, so picking among them in map order would vary by call.
func TestCorruptDeterministic(t *testing.T) {
	q := "MATCH (a:AS)-[:DEPENDS_ON]->(b:AS)-[p:POPULATION]->(c:Country)<-[:COUNTRY]-(:AS)-[:ORIGINATE]->(:Prefix) " +
		"RETURN p.percent, c.country_code, a.hegemony"
	for h := uint64(0); h < 4; h++ {
		want := corrupt(q, h)
		for i := 0; i < 200; i++ {
			if got := corrupt(q, h); got != want {
				t.Fatalf("corrupt(q, %d) call %d = %q, first call gave %q", h, i, got, want)
			}
		}
	}
}

func TestAnswerSingleFact(t *testing.T) {
	m := sim(t)
	resp, err := m.Complete(context.Background(), Request{
		Task:     TaskAnswer,
		Question: "What is the percentage of Japan's population in AS2497?",
		Context:  []string{"5.2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "5.2") {
		t.Errorf("answer %q lost the fact", resp.Text)
	}
	if resp.TokensIn == 0 || resp.TokensOut == 0 {
		t.Error("token accounting missing")
	}
}

func TestAnswerParaphrasesWithSalt(t *testing.T) {
	m := sim(t)
	base := Request{Task: TaskAnswer, Question: "How many prefixes does AS2497 originate?", Context: []string{"42"}}
	r1, _ := m.Complete(context.Background(), base)
	base.Salt = "reference"
	r2, _ := m.Complete(context.Background(), base)
	if !strings.Contains(r1.Text, "42") || !strings.Contains(r2.Text, "42") {
		t.Fatalf("fact lost: %q / %q", r1.Text, r2.Text)
	}
	// Salted generation usually differs in phrasing. (Not guaranteed for
	// every question, but for this one the hash differs.)
	if r1.Text == r2.Text {
		t.Logf("warning: same phrasing for both salts: %q", r1.Text)
	}
}

func TestAnswerEmptyContext(t *testing.T) {
	m := sim(t)
	resp, _ := m.Complete(context.Background(), Request{Task: TaskAnswer, Question: "q", Context: nil})
	if !isNegative(resp.Text) {
		t.Errorf("empty context answer %q should decline", resp.Text)
	}
}

func TestAnswerManyRecords(t *testing.T) {
	m := sim(t)
	ctx := make([]string, 20)
	for i := range ctx {
		ctx[i] = strings.Repeat("x", 3)
	}
	resp, _ := m.Complete(context.Background(), Request{Task: TaskAnswer, Question: "q", Context: ctx})
	if !strings.Contains(resp.Text, "20") {
		t.Errorf("long answer %q should mention the total count", resp.Text)
	}
}

func TestRerankPrefersRelevantSnippet(t *testing.T) {
	m := sim(t)
	q := "Which IXPs is AS2497 a member of?"
	relevant, _ := m.Complete(context.Background(), Request{
		Task: TaskRerank, Question: q,
		Context: []string{"AS2497 (IIJ) is a member of TYO-CIX and FRA-IX."},
	})
	irrelevant, _ := m.Complete(context.Background(), Request{
		Task: TaskRerank, Question: q,
		Context: []string{"Greece (country code GR) has 14 registered autonomous systems."},
	})
	if relevant.Score <= irrelevant.Score {
		t.Errorf("rerank: relevant %.2f <= irrelevant %.2f", relevant.Score, irrelevant.Score)
	}
}

func TestJudgeCorrectVsWrong(t *testing.T) {
	m := sim(t)
	q := "What is the percentage of Japan's population in AS2497?"
	ref := "According to the IYP data, it is 5.2."
	good, _ := m.Complete(context.Background(), Request{Task: TaskJudge, Question: q, Reference: ref, Candidate: "The answer is 5.2."})
	wrong, _ := m.Complete(context.Background(), Request{Task: TaskJudge, Question: q, Reference: ref, Candidate: "The answer is 73.9."})
	missing, _ := m.Complete(context.Background(), Request{Task: TaskJudge, Question: q, Reference: ref, Candidate: "I could not find this information in the IYP graph."})
	if good.Score < 0.7 {
		t.Errorf("correct answer judged %.2f", good.Score)
	}
	if wrong.Score > 0.45 {
		t.Errorf("contradicting answer judged %.2f", wrong.Score)
	}
	if missing.Score > 0.3 {
		t.Errorf("declining answer judged %.2f", missing.Score)
	}
	if good.Score <= wrong.Score || good.Score <= missing.Score {
		t.Error("judge ordering violated")
	}
}

func TestJudgeBothDecline(t *testing.T) {
	m := sim(t)
	r, _ := m.Complete(context.Background(), Request{
		Task: TaskJudge, Question: "q",
		Reference: "No matching records were found for this question.",
		Candidate: "The IYP database does not contain an answer to this question.",
	})
	if r.Score < 0.7 {
		t.Errorf("consistent declines judged %.2f", r.Score)
	}
}

func TestJudgeParaphraseInsensitive(t *testing.T) {
	m := sim(t)
	q := "How many prefixes does AS2497 originate?"
	ref := "IYP reports 42 for AS2497."
	para, _ := m.Complete(context.Background(), Request{Task: TaskJudge, Question: q, Reference: ref,
		Candidate: "The number of prefixes originated by AS2497 is 42."})
	if para.Score < 0.7 {
		t.Errorf("paraphrase with same facts judged %.2f", para.Score)
	}
}

func TestJudgeListAnswers(t *testing.T) {
	m := sim(t)
	q := "Which IXPs is AS2497 a member of?"
	ref := "The results are: FRA-IX and TYO-CIX."
	full, _ := m.Complete(context.Background(), Request{Task: TaskJudge, Question: q, Reference: ref,
		Candidate: "IYP lists the following: TYO-CIX and FRA-IX."})
	partial, _ := m.Complete(context.Background(), Request{Task: TaskJudge, Question: q, Reference: ref,
		Candidate: "The results are: FRA-IX."})
	if full.Score <= partial.Score {
		t.Errorf("complete list %.2f should beat partial %.2f", full.Score, partial.Score)
	}
}

func TestJudgeDeterministicGivenSeed(t *testing.T) {
	m := sim(t)
	req := Request{Task: TaskJudge, Question: "q", Reference: "The answer is 7.", Candidate: "It is 7."}
	r1, _ := m.Complete(context.Background(), req)
	r2, _ := m.Complete(context.Background(), req)
	if r1.Score != r2.Score {
		t.Error("judge not deterministic")
	}
}

func TestExtractFacts(t *testing.T) {
	facts := extractFacts("AS2497 originates 42 prefixes including 192.0.2.0/24, managed by Aurora Telecom.")
	kinds := map[string]int{}
	for _, f := range facts {
		kinds[f.kind]++
	}
	if kinds["asn"] != 1 {
		t.Errorf("asn facts = %d", kinds["asn"])
	}
	if kinds["prefix"] != 1 {
		t.Errorf("prefix facts = %d", kinds["prefix"])
	}
	if kinds["number"] < 1 {
		t.Errorf("number facts = %d", kinds["number"])
	}
	if kinds["entity"] < 1 {
		t.Errorf("entity facts = %d", kinds["entity"])
	}
}

func TestScriptedModel(t *testing.T) {
	sm := &ScriptedModel{
		Responses: map[Task][]Response{
			TaskText2Cypher: {{Text: "MATCH (a) RETURN a"}},
		},
		Errs: map[Task]error{TaskAnswer: errors.New("boom")},
	}
	r, err := sm.Complete(context.Background(), Request{Task: TaskText2Cypher})
	if err != nil || r.Text != "MATCH (a) RETURN a" {
		t.Errorf("scripted response = %+v, %v", r, err)
	}
	if _, err := sm.Complete(context.Background(), Request{Task: TaskAnswer}); err == nil {
		t.Error("scripted error not returned")
	}
	if sm.Calls() != 2 {
		t.Errorf("calls = %d", sm.Calls())
	}
}

func TestContextCancellation(t *testing.T) {
	m := sim(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Complete(ctx, Request{Task: TaskAnswer, Question: "q"}); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestPromptRendering(t *testing.T) {
	req := Request{Task: TaskText2Cypher, Question: "name of AS1?", Schema: "schema card"}
	p := req.Prompt()
	if !strings.Contains(p, "schema card") || !strings.Contains(p, "name of AS1?") {
		t.Errorf("prompt = %q", p)
	}
	req = Request{Task: TaskJudge, Question: "q", Reference: "r", Candidate: "c"}
	p = req.Prompt()
	for _, want := range []string{"Reference: r", "Candidate: c"} {
		if !strings.Contains(p, want) {
			t.Errorf("judge prompt missing %q", want)
		}
	}
}

func BenchmarkTranslate(b *testing.B) {
	m := NewSim(DefaultSimConfig(testLexicon()))
	req := Request{Task: TaskText2Cypher, Question: "What is the percentage of Japan's population in AS2497?"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Complete(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJudge(b *testing.B) {
	m := NewSim(DefaultSimConfig(testLexicon()))
	req := Request{Task: TaskJudge, Question: "How many prefixes does AS2497 originate?",
		Reference: "IYP reports 42 for AS2497.", Candidate: "The number of prefixes originated by AS2497 is 42."}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Complete(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMeteredModelAccounting(t *testing.T) {
	inner := sim(t)
	m := &MeteredModel{Inner: inner, Profile: GPT35TurboProfile()}
	req := Request{Task: TaskAnswer, Question: "How many prefixes does AS2497 originate?", Context: []string{"42"}}
	for i := 0; i < 3; i++ {
		if _, err := m.Complete(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	u := m.Usage()
	if u.Calls != 3 {
		t.Errorf("calls = %d", u.Calls)
	}
	if u.TokensIn == 0 || u.TokensOut == 0 {
		t.Error("token accounting missing")
	}
	if u.SimulatedDur < 3*GPT35TurboProfile().BaseLatency {
		t.Errorf("simulated duration %v below 3x base latency", u.SimulatedDur)
	}
	if u.Cost <= 0 {
		t.Errorf("cost = %v", u.Cost)
	}
	m.Reset()
	if m.Usage().Calls != 0 {
		t.Error("reset did not clear usage")
	}
}

func TestMeteredModelSleepHonorsContext(t *testing.T) {
	inner := sim(t)
	m := &MeteredModel{Inner: inner, Profile: LatencyProfile{BaseLatency: time.Hour}, Sleep: true}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := m.Complete(ctx, Request{Task: TaskAnswer, Question: "q", Context: []string{"x"}})
	if err == nil {
		t.Error("sleeping call should honor context cancellation")
	}
}

func TestMeteredModelPropagatesErrors(t *testing.T) {
	m := &MeteredModel{
		Inner:   &ScriptedModel{Errs: map[Task]error{TaskAnswer: errors.New("boom")}},
		Profile: GPT35TurboProfile(),
	}
	if _, err := m.Complete(context.Background(), Request{Task: TaskAnswer}); err == nil {
		t.Error("inner error swallowed")
	}
	if m.Usage().Calls != 0 {
		t.Error("failed call must not be billed")
	}
}

func TestJoinNatural(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{nil, ""},
		{[]string{"a"}, "a"},
		{[]string{"a", "b"}, "a and b"},
		{[]string{"a", "b", "c"}, "a, b, and c"},
	}
	for _, c := range cases {
		if got := joinNatural(c.in); got != c.want {
			t.Errorf("joinNatural(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestQuestionSubject(t *testing.T) {
	if got := questionSubject("What is the name of AS2497?"); got != "AS2497" {
		t.Errorf("subject = %q", got)
	}
	if got := questionSubject("What is the rank of stream.io?"); got != "stream.io" {
		t.Errorf("domain subject = %q", got)
	}
	if got := questionSubject("how are you"); got != "" {
		t.Errorf("no-entity subject = %q", got)
	}
}

func TestIsNegativePhrases(t *testing.T) {
	for _, s := range []string{
		"I could not find this information in the IYP graph.",
		"The IYP database does not contain an answer to this question.",
		"No matching records were found for this question.",
	} {
		if !isNegative(s) {
			t.Errorf("%q should be negative", s)
		}
	}
	if isNegative("The answer is 42.") {
		t.Error("positive answer flagged negative")
	}
}

func TestFactsAgreeTolerance(t *testing.T) {
	a := fact{kind: "number", num: 100.0, text: "100"}
	b := fact{kind: "number", num: 100.5, text: "100.5"}
	c := fact{kind: "number", num: 150, text: "150"}
	if !factsAgree(a, fact{kind: "number", num: 100.0, text: "100.0"}) {
		t.Error("equal numbers must agree")
	}
	if !factsAgree(a, b) {
		t.Error("0.5% difference should be within tolerance")
	}
	if factsAgree(a, c) {
		t.Error("50% difference must disagree")
	}
	if factsAgree(a, fact{kind: "asn", text: "100"}) {
		t.Error("different kinds must disagree")
	}
}
