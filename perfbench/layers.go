package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
	"polystorepp/internal/server"
)

// perLayer are the per-layer metrics every workload reports with --trace 1.
// Layer times are microseconds per request of the window (a layer a request
// does not use contributes 0), so the layers of one workload add up.
var perLayer = []string{
	"server.decode_us", "server.encode_us", "server.encode_ns_per_row",
	"server.admission_wait_us", "server.result_cache_hit_ratio",
	"server.singleflight_shared_ratio", "server.unattributed_us",
	"eide.build_us", "compiler.key_us", "compiler.touches_us", "core.version_vector_us",
	"compiler.plan_us", "compiler.plan_cache_hit_ratio",
	"core.execute_us", "core.sched_self_us", "core.node_queue_us", "core.nodes_per_req", "core.ingest_us",
	"subplan.hit_ratio", "subplan.plan_reuse_ratio", "subplan.nodes_served_per_req",
	"subplan.stale_skips", "subplan.evictions",
	"feedback.plans_influenced_ratio", "feedback.fanout_overrides_per_kreq",
	"partition.spawned_per_req", "partition.inlined_ratio",
	"relational.run_us_per_req", "timeseries.run_us_per_req", "mlengine.run_us_per_req",
	"textstore.run_us_per_req", "kvstore.run_us_per_req", "migrate.run_us_per_req",
	"migrate.bytes_per_req", "relational.rows_in_per_row_out",
	"hw.sim_latency_us_per_req", "hw.sim_energy_mj_per_req", "hw.offload_share", "hw.sim_over_wall",
	"backend.appends_per_fsync", "backend.fsyncs_per_s", "backend.bytes_written_per_user_byte",
	"backend.snapshot_writes", "backend.recover_s",
	"trace.overhead_ratio",
}

// --- /stats counters --------------------------------------------------------

// fetchStats reads the server's numeric /stats counters, flattening the
// backend block under "backend.".
func fetchStats(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/stats")
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		switch v := v.(type) {
		case float64:
			out[k] = v
		case map[string]any:
			if k != "backend" {
				continue
			}
			for bk, bv := range v {
				if f, ok := bv.(float64); ok {
					out["backend."+bk] = f
				}
			}
		}
	}
	return out, nil
}

// deltas returns after-before per counter: the timed window's share of
// counters that count since boot.
func deltas(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// engineFamily maps an engine instance (or span engine label) to the layer
// it belongs to.
func engineFamily(engine string) string {
	switch {
	case strings.HasPrefix(engine, "db-"):
		return "relational"
	case strings.HasPrefix(engine, "ts-"):
		return "timeseries"
	case strings.HasPrefix(engine, "txt-"):
		return "textstore"
	case strings.HasPrefix(engine, "kv-"):
		return "kvstore"
	case engine == "ml":
		return "mlengine"
	case engine == "middleware":
		return "migrate"
	}
	return "other"
}

var hostDevice = hw.NewHostCPU().Name

// httpLayers derives the serving-side per-layer metrics of a traced window
// from the span trees the server returned and the /stats deltas over it.
func httpLayers(out map[string]metric, tw window, st, after map[string]float64, recoverS float64) {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	n := float64(len(tw.traced))
	var admission []float64
	var admissionSum, unattributed, simLat, simEnergy, userBytes float64
	runUS := map[string]float64{}
	var migrateBytes, relIn, relOut, spans, offloaded, shared, reads float64
	for _, s := range tw.traced {
		if s.kind == kindWrite {
			userBytes += float64(len(s.req.body))
			continue
		}
		reads++
		r := s.resp
		if r.SingleFlight {
			shared++
		}
		if r.Trace == nil {
			continue
		}
		unattributed += float64(s.lat.Microseconds() - r.Trace.WallUS)
		executed := false
		for _, sp := range r.Trace.Spans {
			if sp.Cached {
				continue
			}
			executed = true
			spans++
			fam := engineFamily(sp.Engine)
			runUS[fam] += float64(sp.RunUS)
			if fam == "migrate" {
				migrateBytes += float64(sp.BytesOut)
			}
			if fam == "relational" {
				relIn += float64(sp.RowsIn)
				relOut += float64(sp.RowsOut)
			}
			if sp.Device != "" && sp.Device != hostDevice {
				offloaded++
			}
		}
		for _, ev := range r.Trace.Events {
			if ev.Name == "admission.queue" {
				admission = append(admission, float64(ev.DurUS))
				admissionSum += float64(ev.DurUS)
			}
		}
		if executed {
			simLat += r.SimLatency * 1e6
			simEnergy += r.SimEnergy * 1e3
		}
	}
	set("server.admission_wait_us", ratio(admissionSum, n), "us/req")
	set("server.admission_wait_p99_us", percentile(admission, 99), "us")
	set("server.unattributed_us", ratio(unattributed, n), "us/req")
	set("server.singleflight_shared_ratio", ratio(shared, reads), "ratio")
	set("server.result_cache_hit_ratio", ratio(st["result_cache_hits"], st["result_cache_hits"]+st["result_cache_miss"]), "ratio")
	set("compiler.plan_cache_hit_ratio", ratio(st["plan_cache_hits"], st["plan_cache_hits"]+st["plan_cache_miss"]), "ratio")
	for _, fam := range []string{"relational", "timeseries", "mlengine", "textstore", "kvstore", "migrate"} {
		set(fam+".run_us_per_req", ratio(runUS[fam], n), "us/req")
	}
	set("migrate.bytes_per_req", ratio(migrateBytes, n), "B/req")
	set("relational.rows_in_per_row_out", ratio(relIn, relOut), "ratio")
	set("hw.sim_latency_us_per_req", ratio(simLat, n), "us/req")
	set("hw.sim_energy_mj_per_req", ratio(simEnergy, n), "mJ/req")
	set("hw.offload_share", ratio(offloaded, spans), "ratio")

	set("subplan.hit_ratio", ratio(st["subplan_cache_hits"], st["subplan_cache_hits"]+st["subplan_cache_miss"]), "ratio")
	set("subplan.plan_reuse_ratio", ratio(st["subplan_plans_reused"], st["subplan_plans_probed"]), "ratio")
	set("subplan.nodes_served_per_req", ratio(st["subplan_nodes_served"], n), "1/req")
	set("subplan.stale_skips", st["subplan_cache_stale_skips"], "count")
	set("subplan.evictions", st["subplan_cache_evictions"], "count")
	execs := st["plan_cache_hits"] + st["plan_cache_miss"]
	set("feedback.plans_influenced_ratio", ratio(st["feedback_plans_influenced"], execs), "ratio")
	set("feedback.fanout_overrides_per_kreq", ratio(1000*st["feedback_fanout_overrides"], n), "1/kreq")
	set("partition.spawned_per_req", ratio(st["partition_spawned"], n), "1/req")
	set("partition.inlined_ratio", ratio(st["partition_inlined"], st["partition_spawned"]+st["partition_inlined"]), "ratio")

	// /stats keeps only the latest snapshot's size, so snapshot volume is
	// estimated as snapshots written times that size.
	snapBytes := st["backend.snapshot_writes"] * after["backend.snapshot_last_bytes"]
	set("backend.appends_per_fsync", ratio(st["backend.wal_appends"], st["backend.wal_fsyncs"]), "ratio")
	set("backend.fsyncs_per_s", ratio(st["backend.wal_fsyncs"], tw.elapsed.Seconds()), "1/s")
	set("backend.bytes_written_per_user_byte", ratio(st["backend.wal_bytes"]+snapBytes, userBytes), "ratio")
	set("backend.snapshot_writes", st["backend.snapshot_writes"], "count")
	set("backend.recover_s", recoverS, "s")
}

// --- in-process replay -------------------------------------------------------

// span is one benchmark-side timing around a call into a layer, or a plan
// node span taken from the runtime's trace. Times are nanoseconds from the
// start of the replay.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a request span
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.StartNS, s.EndNS} }

type spanLog struct {
	t0    time.Time
	spans []span
}

// time runs fn inside a span named name under parent and returns fn's error.
func (l *spanLog) time(parent int, name string, fn func() error) (span, error) {
	s := span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartNS: int64(time.Since(l.t0))}
	err := fn()
	s.EndNS = int64(time.Since(l.t0))
	l.spans = append(l.spans, s)
	return s, err
}

// discardSink receives streamed result batches in place of the server's
// NDJSON writer; the replay times encoding separately.
type discardSink struct{}

func (discardSink) StartStream(ir.NodeID, cast.Schema) error { return nil }
func (discardSink) EmitBatch(ir.NodeID, *cast.Batch) error   { return nil }

// maxReplaySpans bounds the spans kept for the written report; the replay
// stops once it is reached.
const maxReplaySpans = 200_000

// replay sends the traced window's requests, in the order the server
// received them, through the layers' public calls on an identically built
// runtime, timing each call. It stops after budget. Per-layer times are
// added to out as microseconds per replayed request.
func replay(ctx context.Context, env *driverEnv, tw window, budget time.Duration, out map[string]metric) ([]span, error) {
	log := &spanLog{t0: time.Now()}
	nl := newNL(env.cfg)
	plans := compiler.NewPlanCache(128)
	opts := compilerOpts
	phase := map[string]int64{} // total ns per layer name
	var records, nodes, queueNS, schedSelfNS int64
	var simS, wallS float64
	reqs := 0
	deadline := time.Now().Add(budget)
	for _, s := range tw.traced {
		if time.Now().After(deadline) || len(log.spans) > maxReplaySpans {
			break
		}
		r := s.req
		reqs++
		root := len(log.spans) + 1
		log.spans = append(log.spans, span{ID: root, Name: "request." + r.kind.path(), StartNS: int64(time.Since(log.t0))})
		timed := func(name string, fn func() error) error {
			sp, err := log.time(root, name, fn)
			phase[name] += sp.EndNS - sp.StartNS
			return err
		}
		var err error
		if r.kind == kindWrite {
			var w server.IngestRequest
			err = timed("server.decode", func() error { return json.Unmarshal(r.body, &w) })
			if err == nil {
				err = timed("core.ingest", func() error {
					return env.rt.Ingest(ctx, w.Engine, adapter.Ingest{Table: w.Table, Row: w.Row,
						Series: w.Series, TS: w.TS, Value: w.Value, Key: w.Key, Data: []byte(w.Data)})
				})
			}
			if err == nil {
				records++
				err = timed("server.encode", func() error {
					return json.NewEncoder(&bytes.Buffer{}).Encode(server.IngestResponse{OK: true, DataVersion: env.rt.DataVersion()})
				})
			}
		} else {
			var q server.QueryRequest
			var g *ir.Graph
			var key string
			var touches compiler.Touches
			var plan *compiler.Plan
			var res *core.Results
			var rep *core.Report
			tr := obs.New("")
			err = timed("server.decode", func() error { return json.Unmarshal(r.body, &q) })
			if err == nil {
				err = timed("eide.build", func() error {
					p, err := buildProgram(&q, env.cfg, nl)
					if err == nil {
						g = p.Graph()
					}
					return err
				})
			}
			if err == nil {
				_ = timed("compiler.key", func() error { key = compiler.Key(g, opts); return nil })
				_ = timed("compiler.touches", func() error { touches = compiler.TouchesOf(g); return nil })
				_ = timed("core.version_vector", func() error { env.rt.VersionVector(touches); return nil })
				err = timed("compiler.plan", func() error {
					var err error
					plan, _, err = plans.GetOrCompileKeyed(key, g, opts)
					return err
				})
			}
			var exec span
			if err == nil {
				exec, err = log.time(root, "core.execute", func() error {
					var err error
					res, rep, err = env.rt.ExecuteStream(obs.With(ctx, tr), plan, discardSink{})
					return err
				})
				phase["core.execute"] += exec.EndNS - exec.StartNS
			}
			if err == nil {
				// Node spans: the runtime's trace offsets are relative to the
				// trace start, taken just before the execute span opened.
				base := tr.Start().Sub(log.t0).Nanoseconds()
				tree := tr.Finish()
				var kids []interval
				for _, ns := range tree.Spans {
					if ns.Cached {
						continue
					}
					lo := base + ns.StartUS*1000
					sp := span{ID: len(log.spans) + 1, Parent: exec.ID, Name: "node." + ns.Kind + "." + ns.Engine,
						StartNS: lo, EndNS: lo + ns.RunUS*1000}
					log.spans = append(log.spans, sp)
					kids = append(kids, sp.interval())
					nodes++
					queueNS += ns.QueueUS * 1000
				}
				schedSelfNS += selfTime(exec.interval(), kids)
				for _, nr := range rep.Nodes {
					simS += nr.Sim.Seconds
					wallS += nr.Wall.Seconds()
				}
				err = timed("server.encode", func() error {
					n, err := encodeRows(res)
					records += int64(n)
					return err
				})
			}
		}
		log.spans[root-1].EndNS = int64(time.Since(log.t0))
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", r.kind.path(), r.body, err)
		}
	}
	if reqs == 0 {
		return nil, fmt.Errorf("traced window recorded no requests")
	}
	per := func(ns int64) float64 { return float64(ns) / 1e3 / float64(reqs) }
	for _, name := range []string{"server.decode", "server.encode", "eide.build", "compiler.key", "compiler.touches",
		"core.version_vector", "compiler.plan", "core.execute", "core.ingest"} {
		out[name+"_us"] = metric{per(phase[name]), "us/req"}
	}
	out["server.encode_ns_per_row"] = metric{ratio(float64(phase["server.encode"]), float64(records)), "ns/record"}
	out["core.sched_self_us"] = metric{per(schedSelfNS), "us/req"}
	out["core.node_queue_us"] = metric{per(queueNS), "us/req"}
	out["core.nodes_per_req"] = metric{float64(nodes) / float64(reqs), "1/req"}
	out["hw.sim_over_wall"] = metric{ratio(simS, wallS), "ratio"}
	out["replay.requests"] = metric{float64(reqs), "count"}
	return log.spans, nil
}

// encodeRows renders the first sink value as the server's /query body does
// and returns the number of rows encoded.
func encodeRows(res *core.Results) (int, error) {
	resp := server.QueryResponse{}
	if b := res.First().Batch; b != nil {
		resp.RowCount = b.Rows()
		resp.Rows = make([][]any, 0, b.Rows())
		for i := 0; i < b.Rows(); i++ {
			row, err := b.Row(i)
			if err != nil {
				return 0, err
			}
			resp.Rows = append(resp.Rows, row)
		}
	}
	return len(resp.Rows), json.NewEncoder(&bytes.Buffer{}).Encode(resp)
}
