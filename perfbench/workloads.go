package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"polystorepp/internal/server"
)

// reqKind separates the three request shapes the closed loop sends.
type reqKind uint8

const (
	kindRead   reqKind = iota // POST /query
	kindStream                // POST /query/stream
	kindWrite                 // POST /ingest
)

func (k reqKind) path() string {
	switch k {
	case kindStream:
		return "/query/stream"
	case kindWrite:
		return "/ingest"
	}
	return "/query"
}

// request is one generated input. The program only ever sees body (or
// tracedBody, the same request with "trace": true); the other fields are the
// benchmark's own bookkeeping for checking the answer.
type request struct {
	kind       reqKind
	body       []byte
	tracedBody []byte
	query      *server.QueryRequest
	write      *server.IngestRequest

	ref    int   // serve-hot: index into the read pool
	lo, hi int64 // scan-export: tid range [lo, hi)
	check  shape // hetero-realtime: expected answer shape
}

// shape names the structural check a hetero-realtime read must pass.
type shape uint8

const (
	shapeLongStay shape = iota + 1
	shapeProgram
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err)) // only fixed struct types reach here
	}
	return b
}

func readRequest(kind reqKind, q server.QueryRequest) request {
	r := request{kind: kind, query: &q, body: mustJSON(q), ref: -1}
	tq := q
	tq.Trace = true
	r.tracedBody = mustJSON(tq)
	return r
}

func writeRequest(w server.IngestRequest) request {
	b := mustJSON(w)
	return request{kind: kindWrite, write: &w, body: b, tracedBody: b, ref: -1}
}

// stream yields one client's request sequence. Each client owns a stream
// seeded from (workload seed, client), so the same seed always produces the
// same inputs per client, whatever the interleaving between clients.
type stream interface {
	next() request
}

// deck deals request classes in exact proportions: each round is a seeded
// shuffle of counts[i] cards of class i, so every run and every seed sends
// the same mix and only the order varies.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for class, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, class)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) deal() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// --- serve-hot ---------------------------------------------------------------

// hotZipfS is the Zipf skew of serve-hot's reads over the pool; one request
// in twenty is a write.
const hotZipfS = 1.1

var noteTerms = []string{
	"patient", "stable", "critical", "vital", "signs", "normal", "elevated",
	"heart", "rate", "oxygen", "saturation", "icu", "admission", "discharge",
	"monitor", "medication", "administered", "response", "improving",
	"deteriorating", "ventilator", "sedation", "recovery", "observation",
}

// hotPool builds the 1024 distinct small-result reads of serve-hot over the
// clinical (patients) and retail (customers) data. The seed picks the
// instances of each class of read and their order within the class; the
// classes themselves are interleaved in a fixed stride pattern, so every
// seed puts the same class at each Zipf rank and sends the same mix.
func hotPool(seed int64, patients, customers int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var classes [][]server.QueryRequest
	add := func(qs []server.QueryRequest) {
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		classes = append(classes, qs)
	}
	sqls := func(engine string, stmts ...string) []server.QueryRequest {
		qs := make([]server.QueryRequest, len(stmts))
		for i, st := range stmts {
			qs[i] = server.QueryRequest{Frontend: "sql", Engine: engine, Statement: st}
		}
		return qs
	}
	var points, custs, ranges, limits, wards, segments []string
	for _, pid := range rng.Perm(patients)[:256] {
		points = append(points, fmt.Sprintf("SELECT pid, age, gender_male, prior_visits FROM patients WHERE pid = %d", pid))
	}
	for _, cid := range rng.Perm(customers)[:256] {
		custs = append(custs, fmt.Sprintf("SELECT cid, segment, tenure_days FROM customers WHERE cid = %d", cid))
	}
	for i, lo := range rng.Perm(customers - 4)[:192] {
		ranges = append(ranges, fmt.Sprintf("SELECT tid, cid, amount FROM transactions WHERE cid >= %d AND cid < %d", lo, lo+1+i%3))
	}
	// The LIMIT family: 64 variants sharing one scan -> filter -> sort prefix.
	for n := 1; n <= 64; n++ {
		limits = append(limits, fmt.Sprintf("SELECT pid, age, prior_visits FROM patients WHERE age > 50 ORDER BY pid LIMIT %d", n))
	}
	for i := 0; i < 64; i++ {
		wards = append(wards, fmt.Sprintf("SELECT ward, count(*) AS n FROM admissions WHERE pid < %d GROUP BY ward", 10+i*(patients-10)/64))
		segments = append(segments, fmt.Sprintf("SELECT segment, avg(tenure_days) AS tenure FROM customers WHERE cid < %d GROUP BY segment", 10+i*(customers-10)/64))
	}
	add(sqls("db-clinical", points...))
	add(sqls("db-retail", custs...))
	add(sqls("db-retail", ranges...))
	add(sqls("db-clinical", limits...))
	add(sqls("db-clinical", wards...))
	add(sqls("db-retail", segments...))
	var nl, text []server.QueryRequest
	for _, st := range []string{
		"how many patients are there?", "how many admissions", "how many stays",
		"average age of patients by gender_male", "average prior_visits of patients by gender_male",
		"average icu_hours of stays by procedures", "average procedures of stays by long_stay",
		"average age of patients by prior_visits",
	} {
		nl = append(nl, server.QueryRequest{Frontend: "nl", Statement: st})
	}
	for _, k := range []int{3, 5, 8, 10, 15} {
		for _, term := range noteTerms {
			text = append(text, server.QueryRequest{Frontend: "text", Engine: "txt-notes", Statement: term, K: k})
		}
	}
	add(nl)
	add(text)
	return interleave(classes)
}

// interleave merges the classes into one pool: the j-th of a class of n
// reads takes the place (j+0.5)/n along the pool, ties going to the earlier
// class, so each class is spread evenly over the ranks whatever its
// contents.
func interleave(classes [][]server.QueryRequest) []request {
	type slot struct {
		at       float64
		class, j int
	}
	var slots []slot
	for c, qs := range classes {
		for j := range qs {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(len(qs)), c, j})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool {
		if slots[a].at != slots[b].at {
			return slots[a].at < slots[b].at
		}
		return slots[a].class < slots[b].class
	})
	pool := make([]request, len(slots))
	for i, sl := range slots {
		pool[i] = readRequest(kindRead, classes[sl.class][sl.j])
		pool[i].ref = i
	}
	return pool
}

type hotStream struct {
	client, k int
	rng       *rand.Rand
	mix       *deck
	zipf      *rand.Zipf
	pool      []request
}

func newHotStream(seed int64, client int, pool []request) *hotStream {
	rng := rand.New(rand.NewSource(seed*1009 + int64(client) + 1))
	return &hotStream{client: client, rng: rng, pool: pool, mix: newDeck(rng, 19, 1),
		zipf: rand.NewZipf(rng, hotZipfS, 1, uint64(len(pool)-1))}
}

func (s *hotStream) next() request {
	s.k++
	if s.mix.deal() == 1 {
		// Writes go to timeseries and key/value data no read touches.
		if s.k%2 == 0 {
			return writeRequest(server.IngestRequest{Engine: "ts-clicks",
				Series: fmt.Sprintf("hot/c%d", s.client), TS: int64(s.k), Value: s.rng.Float64()})
		}
		return writeRequest(server.IngestRequest{Engine: "kv-events",
			Key: fmt.Sprintf("hot/c%d/%d", s.client, s.k), Data: fmt.Sprintf("v%d", s.rng.Intn(1000))})
	}
	return s.pool[s.zipf.Uint64()]
}

// --- scan-export -------------------------------------------------------------

const (
	scanMinRows = 5000
	scanMaxRows = 20000
)

type scanStream struct {
	client int
	rows   int64
	rng    *rand.Rand
	mix    *deck
	seen   map[[2]int64]bool
}

func newScanStream(seed int64, client int, rows int64) *scanStream {
	rng := rand.New(rand.NewSource(seed*2003 + int64(client) + 1))
	return &scanStream{client: client, rows: rows, seen: map[[2]int64]bool{}, rng: rng, mix: newDeck(rng, 1, 1)}
}

func (s *scanStream) next() request {
	for {
		n := int64(scanMinRows + s.rng.Intn(scanMaxRows-scanMinRows+1))
		lo := s.rng.Int63n(s.rows - n + 1)
		// Clients draw disjoint parities of lo, so no two requests share a
		// key and no cache can answer one.
		lo -= (lo + int64(s.client)) % 2
		if lo < 0 {
			lo += 2
		}
		key := [2]int64{lo, lo + n}
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		kind := kindRead
		if s.mix.deal() == 1 {
			kind = kindStream
		}
		r := readRequest(kind, server.QueryRequest{Frontend: "sql", Engine: "db-retail",
			Statement: fmt.Sprintf("SELECT tid, cid, amount, ts FROM transactions WHERE tid >= %d AND tid < %d", lo, lo+n)})
		r.lo, r.hi = lo, lo+n
		return r
	}
}

// --- hetero-realtime -----------------------------------------------------------

// heteroThresholds is how many age thresholds the program reads draw from.
// The mix is 8 NL pipelines, 9 programs and 3 writes in every 20 requests.
const heteroThresholds = 16

// writtenIDBase is the first admission/stay id hetero-realtime writes; seeded
// ids are far below it.
const writtenIDBase = 1_000_000

// farFuture is past every seeded vitals timestamp, so written points always
// extend a series.
var farFuture = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()

type heteroStream struct {
	client, k int
	patients  int
	rng       *rand.Rand
	mix       *deck
}

func newHeteroStream(seed int64, client, patients int) *heteroStream {
	rng := rand.New(rand.NewSource(seed*3001 + int64(client) + 1))
	return &heteroStream{client: client, patients: patients, rng: rng, mix: newDeck(rng, 8, 9, 3)}
}

// heteroProgram is the cross-engine program read: patients over an age
// threshold, joined with their admissions and their vitals summary, sorted.
func heteroProgram(threshold int, byAge bool) server.QueryRequest {
	col, desc := "hr_mean", true
	if byAge {
		col, desc = "age", false
	}
	return server.QueryRequest{Frontend: "program", Program: []server.ProgramStep{
		{ID: "p", Op: "sql", Engine: "db-clinical", SQL: fmt.Sprintf("SELECT pid, age, prior_visits FROM patients WHERE age > %d", threshold)},
		{ID: "a", Op: "sql", Engine: "db-clinical", SQL: fmt.Sprintf("SELECT pid AS apid, ward FROM admissions WHERE aid < %d", writtenIDBase)},
		{ID: "pa", Op: "join", Engine: "db-clinical", Left: "p", Right: "a", LeftCol: "pid", RightCol: "apid"},
		{ID: "v", Op: "tswindow", Engine: "ts-vitals", SeriesPrefix: "vitals/", Agg: "mean"},
		{ID: "pav", Op: "join", Engine: "db-clinical", Left: "pa", Right: "v", LeftCol: "pid", RightCol: "vpid"},
		{ID: "s", Op: "sort", Engine: "db-clinical", Input: "pav", Col: col, Desc: desc},
	}}
}

func heteroLongStay() request {
	r := readRequest(kindRead, server.QueryRequest{Frontend: "nl", Statement: "long stay risk"})
	r.check = shapeLongStay
	return r
}

func heteroProgramRequest(threshold int, byAge bool) request {
	r := readRequest(kindRead, heteroProgram(threshold, byAge))
	r.check = shapeProgram
	return r
}

func (s *heteroStream) next() request {
	s.k++
	switch s.mix.deal() {
	case 0:
		return heteroLongStay()
	case 1:
		return heteroProgramRequest(20+s.rng.Intn(heteroThresholds)*4, s.rng.Intn(2) == 0)
	}
	// Writes touch the data the reads use. Each client owns the patients of
	// its parity, so every vitals series is written by one client in
	// timestamp order. Written admissions fall outside the program reads'
	// aid filter, so join sizes, and with them the cost of a read, stay
	// the same over a run while every write still invalidates.
	pid := 2*s.rng.Intn(s.patients/2) + s.client%2
	id := int64(writtenIDBase + s.client*100_000 + s.k)
	switch s.rng.Intn(3) {
	case 0:
		return writeRequest(server.IngestRequest{Engine: "db-clinical", Table: "stays",
			Row: []any{id, pid, s.rng.Float64() * 96, s.rng.Intn(6), s.rng.Intn(2)}})
	case 1:
		return writeRequest(server.IngestRequest{Engine: "db-clinical", Table: "admissions",
			Row: []any{id, pid, farFuture + int64(s.k)*int64(time.Hour), noteTerms[s.rng.Intn(5)]}})
	}
	return writeRequest(server.IngestRequest{Engine: "ts-vitals",
		Series: fmt.Sprintf("vitals/%d/hr", pid), TS: farFuture + int64(s.k)*int64(time.Second),
		Value: 60 + s.rng.Float64()*40})
}

// heteroSample is the fixed set of distinct reads re-checked on the quiesced
// state after a hetero-realtime run.
func heteroSample() []request {
	out := []request{heteroLongStay()}
	for i := 0; i < heteroThresholds; i += 3 {
		out = append(out, heteroProgramRequest(20+i*4, i%2 == 0))
	}
	return out
}

// --- ingest-durable ------------------------------------------------------------

type ingestStream struct {
	client, k int
	customers int
	rng       *rand.Rand
}

func newIngestStream(seed int64, client, customers int) *ingestStream {
	return &ingestStream{client: client, customers: customers,
		rng: rand.New(rand.NewSource(seed*4001 + int64(client) + 1))}
}

func (s *ingestStream) next() request {
	s.k++
	switch s.k % 3 {
	case 0:
		return writeRequest(server.IngestRequest{Engine: "ts-clicks",
			Series: fmt.Sprintf("ingest/c%d", s.client), TS: int64(s.k), Value: s.rng.Float64() * 20})
	case 1:
		return writeRequest(server.IngestRequest{Engine: "kv-events",
			Key: fmt.Sprintf("ingest/c%d/%d", s.client, s.k), Data: fmt.Sprintf("payload-%d-%d", s.client, s.k)})
	}
	// Row ids sit above every seeded tid, one range per client.
	return writeRequest(server.IngestRequest{Engine: "db-retail", Table: "transactions",
		Row: []any{int64(1_000_000_000 + s.client*100_000_000 + s.k), s.rng.Intn(s.customers), 5 + s.rng.Float64()*495, farFuture + int64(s.k)}})
}
