package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"polystorepp"
	"polystorepp/internal/cast"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/ir"
	"polystorepp/internal/kvstore"
	"polystorepp/internal/relational"
	"polystorepp/internal/server"
	"polystorepp/internal/timeseries"
)

// buildProgram builds the EIDE program a QueryRequest names through the
// public builders, the way the server's frontends do. It covers the
// frontends and program ops the workloads send.
func buildProgram(q *server.QueryRequest, cfg polystore.ServeConfig, nl *eide.NLTranslator) (*eide.Program, error) {
	engine := q.Engine
	if engine == "" {
		engine = cfg.DefaultSQLEngine
		if q.Frontend == "text" {
			engine = cfg.DefaultTextEngine
		}
	}
	switch q.Frontend {
	case "sql":
		p := eide.NewProgram()
		_, err := p.SQL(engine, q.Statement)
		return p, err
	case "nl":
		p, _, err := nl.Translate(q.Statement)
		return p, err
	case "text":
		p := eide.NewProgram()
		p.TextSearch(engine, q.Statement, q.K)
		return p, nil
	case "program":
		p := eide.NewProgram()
		ids := map[string]ir.NodeID{}
		for _, st := range q.Program {
			var id ir.NodeID
			var err error
			switch st.Op {
			case "sql":
				id, err = p.SQL(st.Engine, st.SQL)
			case "tswindow":
				id = p.Graph().Add(ir.OpTSWindow, st.Engine, map[string]any{"series_prefix": st.SeriesPrefix, "agg": st.Agg})
			case "join":
				id = p.Join(st.Engine, ids[st.Left], ids[st.Right], st.LeftCol, st.RightCol)
			case "sort":
				id = p.Sort(st.Engine, ids[st.Input], st.Col, st.Desc)
			default:
				err = fmt.Errorf("program op %q not generated by any workload", st.Op)
			}
			if err != nil {
				return nil, fmt.Errorf("step %q: %w", st.ID, err)
			}
			ids[st.ID] = id
		}
		return p, nil
	}
	return nil, fmt.Errorf("frontend %q not generated by any workload", q.Frontend)
}

func newNL(cfg polystore.ServeConfig) *eide.NLTranslator {
	b := cfg.NL
	return eide.NewNLTranslator(b.Relational, b.Timeseries, b.Text, b.ML)
}

// rowSum is an order-independent digest of a result: its row count and the
// wrapping sum of per-row FNV-1a hashes over each row's JSON encoding.
type rowSum struct {
	count int
	sum   uint64
}

func hashRow(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

func sumRaw(rows []json.RawMessage) rowSum {
	s := rowSum{count: len(rows)}
	for _, r := range rows {
		s.sum += hashRow(r)
	}
	return s
}

// rowHashes returns each row's hash, encoding rows exactly as the server
// does (encoding/json over cast.Batch.Row).
func rowHashes(b *cast.Batch) ([]uint64, error) {
	out := make([]uint64, b.Rows())
	for i := range out {
		row, err := b.Row(i)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(row)
		if err != nil {
			return nil, err
		}
		out[i] = hashRow(raw)
	}
	return out, nil
}

func sumBatch(b *cast.Batch) (rowSum, error) {
	if b == nil {
		return rowSum{}, nil
	}
	hs, err := rowHashes(b)
	if err != nil {
		return rowSum{}, err
	}
	s := rowSum{count: len(hs)}
	for _, h := range hs {
		s.sum += h
	}
	return s, nil
}

// runRef computes a read's reference answer via System.Run.
func runRef(ctx context.Context, sys *polystore.System, cfg polystore.ServeConfig, nl *eide.NLTranslator, q *server.QueryRequest) (*cast.Batch, error) {
	p, err := buildProgram(q, cfg, nl)
	if err != nil {
		return nil, err
	}
	res, _, err := sys.Run(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return res.First().Batch, nil
}

// oracle checks every answer of a workload against references computed on
// the same data.
type oracle struct {
	sp       spec
	hotRefs  []rowSum // serve-hot: per read-pool entry
	scanSums []uint64 // scan-export: prefix sums of row hashes by tid
	patients int

	mu    sync.Mutex
	acked []*server.IngestRequest // writes the server acknowledged
}

// newOracle computes the references on a freshly deployed System.
func newOracle(ctx context.Context, d *deployment) (*oracle, error) {
	o := &oracle{sp: d.spec, patients: d.data.sizes["patients"]}
	nl := newNL(d.cfg)
	switch d.spec.name {
	case "serve-hot":
		for _, r := range d.data.hotPool {
			b, err := runRef(ctx, d.sys, d.cfg, nl, r.query)
			if err != nil {
				return nil, fmt.Errorf("serve-hot reference %s: %w", r.body, err)
			}
			s, err := sumBatch(b)
			if err != nil {
				return nil, err
			}
			o.hotRefs = append(o.hotRefs, s)
		}
	case "scan-export":
		b, err := runRef(ctx, d.sys, d.cfg, nl, &server.QueryRequest{Frontend: "sql", Engine: "db-retail",
			Statement: "SELECT tid, cid, amount, ts FROM transactions"})
		if err != nil {
			return nil, err
		}
		tids, err := b.Ints(0)
		if err != nil {
			return nil, err
		}
		hs, err := rowHashes(b)
		if err != nil {
			return nil, err
		}
		o.scanSums = make([]uint64, len(hs)+1)
		for i, tid := range tids {
			if tid != int64(i) {
				return nil, fmt.Errorf("scan-export reference: row %d has tid %d; ranges assume dense tids", i, tid)
			}
			o.scanSums[i+1] = o.scanSums[i] + hs[i]
		}
	}
	return o, nil
}

// check verifies one answer; it is called concurrently by the clients.
func (o *oracle) check(r *request, a *answer) error {
	if r.kind == kindWrite {
		if !a.resp.OK {
			return fmt.Errorf("ingest %s: not acknowledged", r.body)
		}
		if o.sp.durable {
			o.mu.Lock()
			o.acked = append(o.acked, r.write)
			o.mu.Unlock()
		}
		return nil
	}
	resp := &a.resp
	if resp.Truncated || len(a.rows) != resp.RowCount {
		return fmt.Errorf("%s: %d rows for row_count %d (truncated=%t)", r.body, len(a.rows), resp.RowCount, resp.Truncated)
	}
	got := sumRaw(a.rows)
	switch {
	case r.ref >= 0:
		if want := o.hotRefs[r.ref]; got != want {
			return fmt.Errorf("%s: got %d rows sum %x, want %d rows sum %x", r.body, got.count, got.sum, want.count, want.sum)
		}
	case o.scanSums != nil:
		want := rowSum{count: int(r.hi - r.lo), sum: o.scanSums[r.hi] - o.scanSums[r.lo]}
		if got != want {
			return fmt.Errorf("%s: got %d rows sum %x, want %d rows sum %x", r.body, got.count, got.sum, want.count, want.sum)
		}
	case r.check == shapeLongStay:
		if got.count != o.patients || colIndex(resp.Columns, "prob") < 0 {
			return fmt.Errorf("long stay: %d rows, columns %v; want %d rows with a prob column", got.count, resp.Columns, o.patients)
		}
	case r.check == shapeProgram:
		return checkSorted(r.query, resp.Columns, a.rows)
	}
	return nil
}

func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

// checkSorted verifies a program read's shape: rows present, the sort
// column present, and rows in the requested order.
func checkSorted(q *server.QueryRequest, cols []string, rows []json.RawMessage) error {
	last := q.Program[len(q.Program)-1]
	ci := colIndex(cols, last.Col)
	if len(rows) == 0 || ci < 0 {
		return fmt.Errorf("program: %d rows, columns %v; want rows sorted by %s", len(rows), cols, last.Col)
	}
	prev := 0.0
	for i, raw := range rows {
		var vals []any
		if err := json.Unmarshal(raw, &vals); err != nil || len(vals) != len(cols) {
			return fmt.Errorf("program: row %d malformed: %s", i, raw)
		}
		v, ok := vals[ci].(float64)
		if !ok {
			return fmt.Errorf("program: row %d column %s is %T", i, last.Col, vals[ci])
		}
		if i > 0 && ((last.Desc && v > prev) || (!last.Desc && v < prev)) {
			return fmt.Errorf("program: rows out of %s order at %d", last.Col, i)
		}
		prev = v
	}
	return nil
}

// recheckQuiesced re-runs a sample of hetero-realtime reads on the quiesced
// state over HTTP and via System.Run and requires identical answers.
func recheckQuiesced(ctx context.Context, d *deployment, url string) error {
	c := newHTTPClient(1)
	defer c.CloseIdleConnections()
	nl := newNL(d.cfg)
	for _, r := range heteroSample() {
		a, _, err := send(ctx, c, url, &r, false)
		if err != nil {
			return fmt.Errorf("quiesced recheck over HTTP: %w", err)
		}
		b, err := runRef(ctx, d.sys, d.cfg, nl, r.query)
		if err != nil {
			return err
		}
		want, err := sumBatch(b)
		if err != nil {
			return err
		}
		if got := sumRaw(a.rows); got != want || got.count == 0 {
			return fmt.Errorf("quiesced recheck %s: HTTP %d rows sum %x, System.Run %d rows sum %x",
				r.body, got.count, got.sum, want.count, want.sum)
		}
	}
	return nil
}

// storeVersions returns the mutation counters of the durable stores.
func storeVersions(ds *dataset) map[string]uint64 {
	v := map[string]uint64{}
	if c := ds.clinical; c != nil {
		v["db-clinical"] = c.Relational.Version()
		v["ts-vitals"] = c.Timeseries.Version()
	}
	if r := ds.retail; r != nil {
		v["db-retail"] = r.Relational.Version()
		v["ts-clicks"] = r.Timeseries.Version()
		v["kv-events"] = r.KV.Version()
	}
	return v
}

// recoverAndVerify closes the deployment's WAL backend, reopens its
// directory into empty stores, recovers, and checks that every acknowledged
// write is readable and every store's version advanced past its pre-close
// value. It returns the Recover time.
func (o *oracle) recoverAndVerify(d *deployment) (float64, error) {
	before := storeVersions(d.data)
	if err := d.stopServing(); err != nil {
		return 0, err
	}
	if err := d.bk.Close(); err != nil {
		return 0, fmt.Errorf("close backend: %w", err)
	}
	d.bk = nil
	fresh := &dataset{}
	if d.data.clinical != nil {
		fresh.clinical = &datagen.Clinical{Relational: relational.NewStore("db-clinical"), Timeseries: timeseries.New("ts-vitals")}
	}
	if d.data.retail != nil {
		fresh.retail = &datagen.Retail{Relational: relational.NewStore("db-retail"), Timeseries: timeseries.New("ts-clicks"), KV: kvstore.New("kv-events")}
	}
	bk, err := polystore.OpenBackend("wal", d.spec.backendConfig(d.dir))
	if err != nil {
		return 0, fmt.Errorf("reopen backend: %w", err)
	}
	defer bk.Close()
	fresh.attach(bk)
	t0 := time.Now()
	rec, err := bk.Recover()
	recoverS := time.Since(t0).Seconds()
	if err != nil {
		return recoverS, fmt.Errorf("recover: %w", err)
	}
	if !rec.Recovered {
		return recoverS, fmt.Errorf("recover found no persisted state")
	}
	after := storeVersions(fresh)
	for name, v := range before {
		if after[name] <= v {
			return recoverS, fmt.Errorf("%s version %d after recovery, not past %d before", name, after[name], v)
		}
	}
	tids := map[int64]bool{}
	if t, err := fresh.retail.Relational.Table("transactions"); err == nil {
		ids, err := t.Snapshot().Ints(0)
		if err != nil {
			return recoverS, err
		}
		for _, id := range ids {
			tids[id] = true
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, w := range o.acked {
		if err := readable(fresh, w, tids); err != nil {
			return recoverS, fmt.Errorf("acknowledged write lost after recovery: %s: %w", mustJSON(w), err)
		}
	}
	return recoverS, nil
}

func readable(ds *dataset, w *server.IngestRequest, tids map[int64]bool) error {
	r := ds.retail
	switch {
	case w.Series != "":
		pts, err := r.Timeseries.Range(w.Series, w.TS, w.TS+1)
		if err != nil {
			return err
		}
		i := sort.Search(len(pts), func(i int) bool { return pts[i].TS >= w.TS })
		if i == len(pts) || pts[i].TS != w.TS || pts[i].Value != w.Value {
			return fmt.Errorf("point missing")
		}
	case w.Key != "":
		v, err := r.KV.Get(w.Key)
		if err != nil {
			return err
		}
		if string(v) != w.Data {
			return fmt.Errorf("value %q", v)
		}
	default:
		tid, _ := w.Row[0].(int64)
		if !tids[tid] {
			return fmt.Errorf("row missing")
		}
	}
	return nil
}
