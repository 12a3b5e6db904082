package llm

import (
	"fmt"
	"strings"
)

// rule is one query-pattern rule of the text-to-Cypher head. The head
// mirrors how a prompt-tuned LLM behaves on a schema it knows well:
// common single-hop patterns translate almost perfectly, compositional
// multi-hop patterns much less reliably.
type rule struct {
	name string
	// match returns a relevance score; the highest-scoring rule above
	// zero wins. Scores weigh how many distinct signals the rule
	// explains (entities + intent + concept words).
	match func(p *parsedQuestion) int
	// build renders the Cypher query.
	build func(p *parsedQuestion) string
	// reliability is the base probability that the head translates a
	// matching question correctly (before global scaling).
	reliability float64
}

// conceptAS reports AS-flavored vocabulary beyond an explicit ASN.
func conceptAS(p *parsedQuestion) bool {
	return p.has("as", "ase", "asn", "network", "system") || p.phrase("autonomous system")
}

func firstASN(p *parsedQuestion) int64 {
	if len(p.entities.ASNs) > 0 {
		return p.entities.ASNs[0]
	}
	return 0
}

func firstCountry(p *parsedQuestion) string {
	if len(p.entities.CountryCodes) > 0 {
		return p.entities.CountryCodes[0]
	}
	return ""
}

// rules is the head's pattern library, ordered roughly by specificity.
func rules() []rule {
	return []rule{
		{
			name: "as-name",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("name", "call") && !p.wantsCount {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:NAME]->(n:Name) RETURN n.name", firstASN(p))
			},
			reliability: 0.97,
		},
		{
			name: "as-country",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("countr", "regist", "based") && !p.wantsCount && !p.has("populat") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:COUNTRY]->(c:Country) RETURN c.country_code", firstASN(p))
			},
			reliability: 0.95,
		},
		{
			name: "as-organization",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("organiz", "compan", "manag", "operat", "run") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:MANAGED_BY]->(o:Organization) RETURN o.name", firstASN(p))
			},
			reliability: 0.94,
		},
		{
			name: "population-share",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("populat", "user", "percentag", "share") && !p.wantsMost {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				if cc := firstCountry(p); cc != "" {
					return fmt.Sprintf("MATCH (:AS {asn: %d})-[p:POPULATION]-(:Country {country_code: '%s'}) RETURN p.percent", firstASN(p), cc)
				}
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[p:POPULATION]-(:Country) RETURN p.percent", firstASN(p))
			},
			reliability: 0.93,
		},
		{
			name: "count-as-in-country",
			match: func(p *parsedQuestion) int {
				if p.wantsCount && firstCountry(p) != "" && conceptAS(p) && !p.has("prefix", "ixp", "exchang", "organiz", "depend") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[:COUNTRY]->(:Country {country_code: '%s'}) RETURN count(a)", firstCountry(p))
			},
			reliability: 0.9,
		},
		{
			name: "count-prefixes",
			match: func(p *parsedQuestion) int {
				if p.wantsCount && len(p.entities.ASNs) == 1 && p.has("prefix", "announc", "originat", "advertis", "route") && !p.has("roa", "rpki") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				af := ""
				if p.has("ipv6", "v6") {
					af = " {af: 6}"
				} else if p.has("ipv4", "v4") {
					af = " {af: 4}"
				}
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:ORIGINATE]->(p:Prefix%s) RETURN count(p)", firstASN(p), af)
			},
			reliability: 0.91,
		},
		{
			name: "list-prefixes",
			match: func(p *parsedQuestion) int {
				if p.wantsList && len(p.entities.ASNs) == 1 && p.has("prefix", "announc", "originat", "advertis") && !p.wantsCount && !p.has("roa", "rpki") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix", firstASN(p))
			},
			reliability: 0.9,
		},
		{
			name: "prefix-origin",
			match: func(p *parsedQuestion) int {
				if len(p.entities.Prefixes) == 1 && p.has("originat", "announc", "advertis", "who", "which") && !p.has("roa", "rpki", "author") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[:ORIGINATE]->(:Prefix {prefix: '%s'}) RETURN a.asn", p.entities.Prefixes[0])
			},
			reliability: 0.92,
		},
		{
			name: "caida-rank",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("rank", "asrank") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[r:RANK]->(:Ranking {name: 'CAIDA ASRank'}) RETURN r.rank", firstASN(p))
			},
			reliability: 0.9,
		},
		{
			name: "tranco-rank",
			match: func(p *parsedQuestion) int {
				if len(p.entities.Domains) == 1 && p.has("rank", "popular") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:DomainName {name: '%s'})-[r:RANK]->(:Ranking) RETURN r.rank", p.entities.Domains[0])
			},
			reliability: 0.9,
		},
		{
			name: "domain-resolve",
			match: func(p *parsedQuestion) int {
				if len(p.entities.Domains) == 1 && p.has("resolv", "ip", "address", "dns") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:DomainName {name: '%s'})-[:RESOLVES_TO]->(i:IP) RETURN i.ip", p.entities.Domains[0])
			},
			reliability: 0.89,
		},
		{
			name: "roa-for-prefix",
			match: func(p *parsedQuestion) int {
				if len(p.entities.Prefixes) == 1 && p.has("roa", "rpki", "author", "cover") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[:ROUTE_ORIGIN_AUTHORIZATION]->(:Prefix {prefix: '%s'}) RETURN a.asn", p.entities.Prefixes[0])
			},
			reliability: 0.82,
		},
		{
			name: "count-roa-prefixes",
			match: func(p *parsedQuestion) int {
				if p.wantsCount && len(p.entities.ASNs) == 1 && p.has("roa", "rpki", "author") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:ROUTE_ORIGIN_AUTHORIZATION]->(p:Prefix) RETURN count(p)", firstASN(p))
			},
			reliability: 0.65,
		},
		{
			name: "member-ixps",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("ixp", "exchang", "member", "peer") && p.has("ixp", "exchang") && !p.wantsCount {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:MEMBER_OF]->(x:IXP) RETURN x.name", firstASN(p))
			},
			reliability: 0.72,
		},
		{
			name: "ixp-member-count",
			match: func(p *parsedQuestion) int {
				if len(p.entities.IXPs) == 1 && p.wantsCount && p.has("member", "network", "participant") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[:MEMBER_OF]->(:IXP {name: '%s'}) RETURN count(a)", p.entities.IXPs[0])
			},
			reliability: 0.72,
		},
		{
			name: "ixp-country",
			match: func(p *parsedQuestion) int {
				if len(p.entities.IXPs) == 1 && p.has("countr", "where", "locat") && !p.has("facilit", "datacent") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:IXP {name: '%s'})-[:COUNTRY]->(c:Country) RETURN c.country_code", p.entities.IXPs[0])
			},
			reliability: 0.86,
		},
		{
			name: "ixp-facility",
			match: func(p *parsedQuestion) int {
				if len(p.entities.IXPs) == 1 && p.has("facilit", "datacent", "coloc", "hous") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:IXP {name: '%s'})-[:LOCATED_IN]->(f:Facility) RETURN f.name", p.entities.IXPs[0])
			},
			reliability: 0.7,
		},
		{
			name: "count-ixps-in-country",
			match: func(p *parsedQuestion) int {
				if p.wantsCount && firstCountry(p) != "" && p.has("ixp", "exchang") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (x:IXP)-[:COUNTRY]->(:Country {country_code: '%s'}) RETURN count(x)", firstCountry(p))
			},
			reliability: 0.72,
		},
		{
			name: "as-tags",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("tag", "categor", "classif", "kind") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:CATEGORIZED]->(t:Tag) RETURN t.label", firstASN(p))
			},
			reliability: 0.74,
		},
		{
			name: "depends-on-list",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("depend", "reli", "upstream") && !p.wantsCount && !p.wantsAverage && !p.has("hegemon") {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:DEPENDS_ON]->(b:AS) RETURN b.asn", firstASN(p))
			},
			reliability: 0.7,
		},
		{
			name: "count-dependents",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.wantsCount && p.has("depend", "reli") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				// "How many ASes depend ON AS X" — incoming edges. The
				// direction here is the classic LLM confusion; the
				// corruption model flips it sometimes.
				return fmt.Sprintf("MATCH (a:AS)-[:DEPENDS_ON]->(:AS {asn: %d}) RETURN count(a)", firstASN(p))
			},
			reliability: 0.62,
		},
		{
			name: "hegemony-score",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 2 && p.has("hegemon", "depend", "score") {
					return 8
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[d:DEPENDS_ON]->(:AS {asn: %d}) RETURN d.hegemony",
					p.entities.ASNs[0], p.entities.ASNs[1])
			},
			reliability: 0.72,
		},
		{
			name: "avg-hegemony",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.wantsAverage && p.has("hegemon", "depend") {
					return 8
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS)-[d:DEPENDS_ON]->(:AS {asn: %d}) RETURN avg(d.hegemony)", firstASN(p))
			},
			reliability: 0.68,
		},
		{
			name: "peers-list",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("peer", "neighbor", "adjacen") && !p.has("ixp", "exchang") && !p.wantsCount {
					return 6
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:PEERS_WITH]-(b:AS) RETURN b.asn", firstASN(p))
			},
			reliability: 0.7,
		},
		{
			name: "count-peers",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.wantsCount && p.has("peer", "neighbor", "adjacen") && !p.has("ixp", "exchang") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:PEERS_WITH]-(b:AS) RETURN count(b)", firstASN(p))
			},
			reliability: 0.7,
		},
		{
			name: "customers",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("customer", "downstream") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:PEERS_WITH {rel: 1}]->(b:AS) RETURN b.asn", firstASN(p))
			},
			reliability: 0.68,
		},
		{
			name: "providers",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("provider", "transit") && !p.has("depend", "hegemon") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[:PEERS_WITH {rel: 1}]->(:AS {asn: %d}) RETURN a.asn", firstASN(p))
			},
			reliability: 0.66,
		},
		{
			name: "orgs-in-country",
			match: func(p *parsedQuestion) int {
				if firstCountry(p) != "" && p.has("organiz", "compan") && (p.wantsList || p.wantsCount) {
					return 5
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				if p.wantsCount {
					return fmt.Sprintf("MATCH (o:Organization)-[:COUNTRY]->(:Country {country_code: '%s'}) RETURN count(o)", firstCountry(p))
				}
				return fmt.Sprintf("MATCH (o:Organization)-[:COUNTRY]->(:Country {country_code: '%s'}) RETURN o.name", firstCountry(p))
			},
			reliability: 0.72,
		},
		{
			name: "most-population-as",
			match: func(p *parsedQuestion) int {
				if p.wantsMost && firstCountry(p) != "" && p.has("populat", "user", "share") {
					return 8
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[p:POPULATION]->(:Country {country_code: '%s'}) RETURN a.asn ORDER BY p.percent DESC LIMIT 1", firstCountry(p))
			},
			reliability: 0.66,
		},
		{
			name: "org-most-ases",
			match: func(p *parsedQuestion) int {
				if p.wantsMost && p.has("organiz", "compan") && conceptAS(p) && firstCountry(p) == "" {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return "MATCH (a:AS)-[:MANAGED_BY]->(o:Organization) RETURN o.name, count(a) AS n ORDER BY n DESC LIMIT 1"
			},
			reliability: 0.6,
		},
		{
			name: "country-most-ixps",
			match: func(p *parsedQuestion) int {
				if p.wantsMost && p.has("ixp", "exchang") && p.has("countr") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return "MATCH (x:IXP)-[:COUNTRY]->(c:Country) RETURN c.country_code, count(x) AS n ORDER BY n DESC LIMIT 1"
			},
			reliability: 0.62,
		},
		{
			name: "country-most-prefixes",
			match: func(p *parsedQuestion) int {
				if p.wantsMost && p.has("countr") && p.has("prefix", "originat", "announc") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return "MATCH (a:AS)-[:COUNTRY]->(c:Country), (a)-[:ORIGINATE]->(p:Prefix) RETURN c.country_code, count(p) AS n ORDER BY n DESC LIMIT 1"
			},
			reliability: 0.5,
		},
		{
			name: "as-most-prefixes-in-country",
			match: func(p *parsedQuestion) int {
				if p.wantsMost && firstCountry(p) != "" && p.has("prefix", "originat", "announc") && conceptAS(p) {
					return 8
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[:COUNTRY]->(:Country {country_code: '%s'}), (a)-[:ORIGINATE]->(p:Prefix) RETURN a.asn, count(p) AS n ORDER BY n DESC LIMIT 1", firstCountry(p))
			},
			reliability: 0.52,
		},
		{
			name: "common-ixps",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 2 && p.has("ixp", "exchang", "both") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:MEMBER_OF]->(x:IXP)<-[:MEMBER_OF]-(:AS {asn: %d}) RETURN x.name",
					p.entities.ASNs[0], p.entities.ASNs[1])
			},
			reliability: 0.58,
		},
		{
			name: "ases-more-than-n-prefixes",
			match: func(p *parsedQuestion) int {
				if firstCountry(p) != "" && p.has("prefix") && (p.phrase("more than") || p.phrase("at least")) && len(p.entities.Numbers) > 0 {
					return 8
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				op := ">"
				if p.phrase("at least") {
					op = ">="
				}
				return fmt.Sprintf("MATCH (a:AS)-[:COUNTRY]->(:Country {country_code: '%s'}) MATCH (a)-[:ORIGINATE]->(p:Prefix) WITH a, count(p) AS n WHERE n %s %d RETURN a.asn",
					firstCountry(p), op, p.entities.Numbers[0])
			},
			reliability: 0.48,
		},
		{
			name: "tagged-members-of-ixp",
			match: func(p *parsedQuestion) int {
				if len(p.entities.IXPs) == 1 && len(p.entities.Tags) > 0 {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[:MEMBER_OF]->(:IXP {name: '%s'}) MATCH (a)-[:CATEGORIZED]->(:Tag {label: '%s'}) RETURN a.asn",
					p.entities.IXPs[0], p.entities.Tags[0])
			},
			reliability: 0.52,
		},
		{
			name: "upstream-two-hops",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("hop", "transitiv", "indirect") && p.has("depend", "upstream") {
					return 8
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:DEPENDS_ON*2]->(b:AS) RETURN DISTINCT b.asn", firstASN(p))
			},
			reliability: 0.42,
		},
		{
			name: "common-upstream-in-country",
			match: func(p *parsedQuestion) int {
				if p.wantsMost && firstCountry(p) != "" && p.has("depend", "upstream", "hegemon") {
					return 8
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS)-[:COUNTRY]->(:Country {country_code: '%s'}) MATCH (a)-[:DEPENDS_ON]->(u:AS) RETURN u.asn, count(a) AS n ORDER BY n DESC LIMIT 1", firstCountry(p))
			},
			reliability: 0.45,
		},
		{
			name: "facility-of-ixps-for-as",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("facilit", "datacent") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:MEMBER_OF]->(:IXP)-[:LOCATED_IN]->(f:Facility) RETURN DISTINCT f.name", firstASN(p))
			},
			reliability: 0.5,
		},
		{
			name: "domains-hosted-by-as",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 && p.has("domain", "websit", "host") && p.has("domain", "websit") {
					return 7
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				limit := ""
				if p.wantsTopN > 0 {
					limit = fmt.Sprintf(" LIMIT %d", p.wantsTopN)
				}
				return fmt.Sprintf("MATCH (:AS {asn: %d})-[:ORIGINATE]->(:Prefix)<-[:PART_OF]-(:IP)<-[:RESOLVES_TO]-(d:DomainName) MATCH (d)-[r:RANK]->(:Ranking) RETURN d.name ORDER BY r.rank%s", firstASN(p), limit)
			},
			reliability: 0.35,
		},
		{
			name: "prefixes-without-roa",
			match: func(p *parsedQuestion) int {
				if p.negated && p.has("roa", "rpki") && (len(p.entities.ASNs) == 1 || len(p.entities.IXPs) == 1) {
					return 8
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				if len(p.entities.ASNs) == 1 {
					return fmt.Sprintf("MATCH (a:AS {asn: %d})-[:ORIGINATE]->(p:Prefix) WHERE NOT (a)-[:ROUTE_ORIGIN_AUTHORIZATION]->(p) RETURN p.prefix", firstASN(p))
				}
				return fmt.Sprintf("MATCH (a:AS)-[:MEMBER_OF]->(:IXP {name: '%s'}) MATCH (a)-[:ORIGINATE]->(p:Prefix) WHERE NOT (a)-[:ROUTE_ORIGIN_AUTHORIZATION]->(p) RETURN p.prefix", p.entities.IXPs[0])
			},
			reliability: 0.38,
		},
		{
			name: "as-node-lookup",
			match: func(p *parsedQuestion) int {
				if len(p.entities.ASNs) == 1 {
					return 1 // weak catch-all
				}
				return 0
			},
			build: func(p *parsedQuestion) string {
				return fmt.Sprintf("MATCH (a:AS {asn: %d}) RETURN a", firstASN(p))
			},
			reliability: 0.5,
		},
	}
}

// corruption sets: schema-plausible substitutions the head makes when it
// errs, matching the qualitative failure modes reported for LLM
// text-to-Cypher (wrong relationship, flipped direction, wrong
// property). They are ordered: corrupt applies the first one that
// matches, so one question always corrupts the same way.
type confusion struct{ from, to string }

var relConfusion = []confusion{
	{"POPULATION", "COUNTRY"},
	{"COUNTRY", "POPULATION"},
	{"DEPENDS_ON", "PEERS_WITH"},
	{"PEERS_WITH", "DEPENDS_ON"},
	{"ORIGINATE", "ROUTE_ORIGIN_AUTHORIZATION"},
	{"ROUTE_ORIGIN_AUTHORIZATION", "ORIGINATE"},
	{"MEMBER_OF", "LOCATED_IN"},
	{"MANAGED_BY", "NAME"},
}

var propConfusion = []confusion{
	{"percent", "samples"},
	{"country_code", "alpha3"},
	{"hegemony", "rel"},
}

// corrupt applies one deterministic schema-plausible mutation.
func corrupt(query string, h uint64) string {
	type mutation func(string) (string, bool)
	mutations := []mutation{
		func(q string) (string, bool) { // swap a relationship type
			for _, c := range relConfusion {
				if strings.Contains(q, ":"+c.from) {
					return strings.Replace(q, ":"+c.from, ":"+c.to, 1), true
				}
			}
			return q, false
		},
		func(q string) (string, bool) { // flip a direction
			if strings.Contains(q, "]->") {
				return strings.Replace(strings.Replace(q, "]->", "]-", 1), "-[", "<-[", 1), true
			}
			if strings.Contains(q, "<-[") {
				return strings.Replace(strings.Replace(q, "<-[", "-[", 1), "]-", "]->", 1), true
			}
			return q, false
		},
		func(q string) (string, bool) { // swap a property
			for _, c := range propConfusion {
				if strings.Contains(q, "."+c.from) {
					return strings.Replace(q, "."+c.from, "."+c.to, 1), true
				}
			}
			return q, false
		},
		func(q string) (string, bool) { // count instead of the value
			if i := strings.Index(q, "RETURN "); i >= 0 && !strings.Contains(q, "count(") {
				rest := q[i+len("RETURN "):]
				if j := strings.IndexAny(rest, " \n"); j == -1 {
					return q[:i] + "RETURN count(*)", true
				}
				return q[:i] + "RETURN count(*)" + "", true
			}
			return q, false
		},
	}
	// Try mutations starting at a hash-selected offset so different
	// questions fail differently.
	start := int(h % uint64(len(mutations)))
	for k := 0; k < len(mutations); k++ {
		if out, ok := mutations[(start+k)%len(mutations)](query); ok {
			return out
		}
	}
	return query
}
