// Command perfbench is the repository benchmark: it deploys a seeded
// Polystore++ System behind its HTTP handler on loopback, drives one
// workload as a closed loop of clients, checks every answer, and prints
// end-to-end metrics (or, with --trace 1, per-layer metrics). See README.md.
//
//	go run . --workload serve-hot --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// maxClients bounds the closed loop's width: one client per core of the
// 2-core host the benchmark was sized on, so clients never outnumber cores.
// serve-hot runs one client: its ~30 us requests are serial work, and with
// a second client (and its own decoding and checking) on the other core its
// tail measured queueing behind the other client and the host's scheduling
// more than the program; run to run, its p99 spread twice as far as at one
// client.
const maxClients = 2

// A run builds its deployment at least minSetups times and until
// setupBudget has passed (closing the previous deployment included), at
// most maxSetups times, and reports the median: short set-ups are repeated
// more, so that a burst of host interference does not move the median.
const (
	minSetups   = 7
	maxSetups   = 1001
	setupBudget = 1500 * time.Millisecond
)

// warmLimit caps a warm-up's duration should the host be too slow to send
// the spec's warm-up count in time.
const warmLimit = 30 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record a run writes under the output directory.
type report struct {
	Meta    hostMeta             `json:"meta"`
	Result  result               `json:"result"`
	All     map[string]metric    `json:"all_metrics"`
	Errors  []string             `json:"errors,omitempty"`
	Spans   []span               `json:"spans,omitempty"`
	Layers  map[string]metric    `json:"layers,omitempty"`
	Samples map[string]int       `json:"samples"`
	Slices  map[string][]float64 `json:"slices"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	work     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-hot, scan-export, hetero-realtime, ingest-durable")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (data and request sequence)")
	flag.IntVar(&o.seconds, "seconds", 25, "timed window length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for the full JSON report")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for WAL data")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := specs[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printReport(rep)
	if err := writeReport(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(rep.Result)
	fmt.Println(string(line))
	if !rep.Result.Correct || rep.Result.Failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload run. It returns an error only when the run
// could not be carried out; wrong answers are counted in the result.
func run(o options) (*report, error) {
	sp := specs[o.workload]
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Meta: newHostMeta(), All: map[string]metric{}, Samples: map[string]int{}}
	rep.Meta.Workload, rep.Meta.Seed, rep.Meta.Seconds, rep.Meta.Clients, rep.Meta.Trace =
		sp.name, o.seed, o.seconds, sp.clients, o.trace

	// Set-up: build the deployment several times, keep the last.
	n, budget := maxSetups, setupBudget
	if o.trace {
		n, budget = 1, 0 // the traced pass reports no set-up time
	}
	var d *deployment
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	var setupS []float64
	begin := time.Now()
	for i := 0; i < n && (i < min(n, minSetups) || time.Since(begin) < budget); i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = deploy(sp, o.seed, o.work); err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.Meta.Dataset = d.data.sizes
	rep.Meta.Serve = serveConfigMeta(d)
	rep.Meta.Backend = map[string]any{"kind": d.bk.Kind(), "sync": walSync, "snapshot_bytes": sp.snapBytes, "rounds": sp.rounds}
	rep.All["setup_s"] = metric{median(setupS), "s"}
	rep.Samples["setups"] = len(setupS)

	ctx := context.Background()
	hc := newHTTPClient(sp.clients)
	var ar arena
	defer ar.free()
	var attempted, failed int
	tally := func(w window, err error) (window, error) {
		attempted += w.samples.count()
		failed += w.failed
		rep.Errors = append(rep.Errors, w.errs...)
		return w, err
	}

	// The timed window is split over sp.rounds fresh deployments (one for
	// the traced pass, whose first half is untraced and second half traced).
	rounds, timed := max(1, min(sp.rounds, o.seconds)), time.Duration(o.seconds)*time.Second
	if o.trace {
		rounds, timed = 1, timed/2
	}
	timed /= time.Duration(rounds)
	var phases []phase
	var tw window
	var statsDelta, after map[string]float64
	recoverS := d.recoverIn.Seconds()
	for r := 0; r < rounds; r++ {
		if r > 0 {
			if err := d.close(); err != nil {
				return nil, err
			}
			var err error
			if d, err = deploy(sp, o.seed, o.work); err != nil {
				return nil, fmt.Errorf("deploy: %w", err)
			}
		}
		orc, err := newOracle(ctx, d)
		if err != nil {
			return nil, err
		}
		streams := make([]stream, sp.clients)
		for i := range streams {
			streams[i] = sp.stream(o.seed, i, d.data)
		}

		// Warm-up fills caches and finishes lazy set-up before timing. It is
		// a fixed number of requests, so the heap it leaves behind does not
		// depend on how fast the host ran it.
		if _, err := tally(runWindow(&ar, hc, d.url, streams, warmLimit, sp.warmup/rounds/sp.clients, false, orc.check)); err != nil {
			return nil, err
		}
		live := liveHeapAfterGC()
		mon := startMonitor()
		w, err := runWindow(&ar, hc, d.url, streams, timed, 0, false, orc.check)
		mon.finish()
		if _, err := tally(w, err); err != nil {
			return nil, err
		}
		phases = append(phases, phase{w, mon, live})

		if o.trace {
			before, err := fetchStats(d.url)
			if err != nil {
				return nil, err
			}
			if tw, err = tally(runWindow(&ar, hc, d.url, streams, timed, 0, true, orc.check)); err != nil {
				return nil, err
			}
			if after, err = fetchStats(d.url); err != nil {
				return nil, err
			}
			statsDelta = deltas(before, after)
		}

		// Correctness checks on the quiesced state.
		var postErr error
		switch sp.name {
		case "hetero-realtime":
			postErr = recheckQuiesced(ctx, d, d.url)
		case "ingest-durable":
			recoverS, postErr = orc.recoverAndVerify(d)
		}
		attempted++
		if postErr != nil {
			failed++
			rep.Errors = append(rep.Errors, "post-run check: "+postErr.Error())
		}
	}
	e2e(rep, phases)

	rep.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	rep.All["error_share"] = metric{ratio(float64(failed), float64(attempted)), "share"}
	if !o.trace {
		for _, name := range endToEnd {
			rep.Result.Metrics[name] = rep.All[name]
		}
		return rep, nil
	}

	// Traced pass: per-layer metrics from the HTTP span trees and /stats
	// deltas, then the in-process replay through the layers' public calls.
	rep.Layers = map[string]metric{}
	httpLayers(rep.Layers, tw, statsDelta, after, recoverS)
	rep.Layers["trace.overhead_ratio"] = metric{ratio(rep.All["throughput_rps"].Value, quietRate(sliceRates(tw.samples, tw.start, int(tw.elapsed/sliceLen)))), "ratio"}
	env, err := newDriverEnv(sp, o.seed, o.work)
	if err != nil {
		return nil, fmt.Errorf("driver deployment: %w", err)
	}
	defer env.close()
	spans, err := replay(ctx, env, tw, timed, rep.Layers)
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	rep.Spans = spans
	for _, name := range perLayer {
		m, ok := rep.Layers[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", name)
		}
		rep.Result.Metrics[name] = m
	}
	return rep, nil
}

// endToEnd are the gated metrics every workload reports with --trace 0.
var endToEnd = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_req", "heap_live_mb"}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sliceLen is the length of the slices a timed window is cut into. Host
// interference on a shared machine only ever slows a slice down, so the
// slowest quarter of the slices (by throughput) is set aside as disturbed,
// and the rest, the quiet slices, give throughput, CPU per request and p99:
// the less disturbed seconds, which a change to the program moves as much
// as any other second. A slice's median latency is exact on its own, so
// the p50 is the quietPct-th percentile of the slice medians.
const sliceLen = time.Second

// quietPct is the percentile of the slice medians reported as the p50.
const quietPct = 10

// quiet returns how many of n slices are quiet: all but the slowest quarter.
func quiet(n int) int { return n - n/4 }

// quietRate is the mean of the quiet slices' rates.
func quietRate(rates []float64) float64 {
	r := slices.Clone(rates)
	sort.Sort(sort.Reverse(sort.Float64Slice(r)))
	r = r[:quiet(len(r))]
	sum := 0.0
	for _, x := range r {
		sum += x
	}
	return ratio(sum, float64(len(r)))
}

// phase is one untraced timed window with the monitor that watched it and
// the live heap after a full collection at the end of its warm-up.
type phase struct {
	w    window
	mon  *monitor
	live uint64
}

// sliceOf returns the index of the slice a request completed in, or -1
// when it completed outside the n whole slices after start.
func sliceOf(s sample, start time.Time, n int) int {
	i := int((s.sent + s.lat - at(start)) / sliceLen)
	if i < 0 || i >= n {
		return -1
	}
	return i
}

// sliceRates returns the successful requests per second in each of the n
// whole slices after start. A request counts in every slice its
// send-to-reply interval overlaps, in proportion to the overlap, so slow
// requests do not quantize the rate.
func sliceRates(ss samples, start time.Time, n int) []float64 {
	rates := make([]float64, n)
	for _, c := range ss {
		for _, s := range c {
			if !s.ok {
				continue
			}
			lo := s.sent - at(start)
			hi := lo + max(s.lat, 1)
			for i := max(0, int(lo/sliceLen)); i < n && time.Duration(i)*sliceLen < hi; i++ {
				from, to := max(lo, time.Duration(i)*sliceLen), min(hi, time.Duration(i+1)*sliceLen)
				rates[i] += float64(to-from) / float64(hi-lo)
			}
		}
	}
	for i := range rates {
		rates[i] /= sliceLen.Seconds()
	}
	return rates
}

// e2e computes the end-to-end metrics of the untraced timed windows.
// Throughput, CPU per request and p99 are over the quiet slices, and the p50
// over the slice medians (see sliceLen). The per-class splits are over whole
// windows and not gated. The live heap is measured after a full collection
// at the end of each fixed-count warm-up (the median over rounds): the
// memory the deployment retains after the same requests on every host,
// without the garbage in flight that makes an in-run heap reading noisy.
// heap_peak_mb, the largest live heap any slice saw, is reported but not
// gated.
func e2e(rep *report, phases []phase) {
	var all, reads, streams, writes, ttfr []float64
	var rps, p50, p99, cpu, heap, live []float64
	type slice struct {
		rate float64       // successful requests per second
		cpu  time.Duration // process CPU used
		lat  []float64     // latencies of the requests completed in it
	}
	var cut []slice
	rows, secs := 0, 0.0
	for _, ph := range phases {
		secs += ph.w.elapsed.Seconds()
		live = append(live, float64(ph.live)/(1<<20))
		n := len(ph.mon.cpu) - 1
		sliceLat := make([][]float64, n)
		for _, c := range ph.w.samples {
			for _, s := range c {
				if !s.ok {
					continue
				}
				l := ms(s.lat)
				all = append(all, l)
				rows += int(s.rows)
				if i := sliceOf(s, ph.mon.start, n); i >= 0 {
					sliceLat[i] = append(sliceLat[i], l)
				}
				switch s.kind {
				case kindWrite:
					writes = append(writes, l)
				case kindStream:
					streams = append(streams, l)
					ttfr = append(ttfr, ms(s.ttfr))
					fallthrough
				default:
					reads = append(reads, l)
				}
			}
		}
		for i, r := range sliceRates(ph.w.samples, ph.mon.start, n) {
			heap = append(heap, float64(ph.mon.peaks[i])/(1<<20))
			if r == 0 || len(sliceLat[i]) == 0 {
				continue
			}
			rps = append(rps, r)
			p50 = append(p50, percentile(sliceLat[i], 50))
			p99 = append(p99, percentile(sliceLat[i], 99))
			used := ph.mon.cpu[i+1] - ph.mon.cpu[i]
			cpu = append(cpu, ms(used)/(r*sliceLen.Seconds()))
			cut = append(cut, slice{r, used, sliceLat[i]})
		}
	}
	// The report keeps the series in slice order; percentile sorts p50.
	rep.Slices = map[string][]float64{"throughput_rps": rps, "latency_p50_ms": slices.Clone(p50),
		"latency_p99_ms": p99, "cpu_ms_per_req": cpu}
	sort.Slice(cut, func(i, j int) bool { return cut[i].rate > cut[j].rate })
	cut = cut[:quiet(len(cut))]
	var quietLat []float64
	var quietReqs float64
	var quietCPU time.Duration
	for _, c := range cut {
		quietLat = append(quietLat, c.lat...)
		quietReqs += c.rate * sliceLen.Seconds()
		quietCPU += c.cpu
	}
	set := func(name string, v float64, unit string) { rep.All[name] = metric{v, unit} }
	set("throughput_rps", quietRate(rps), "1/s")
	set("latency_p50_ms", percentile(p50, quietPct), "ms")
	set("latency_p99_ms", percentile(quietLat, 99), "ms")
	set("cpu_ms_per_req", ratio(ms(quietCPU), quietReqs), "ms")
	set("heap_live_mb", median(live), "MB")
	if len(heap) > 0 {
		set("heap_peak_mb", slices.Max(heap), "MB")
	}
	set("rows_per_s", ratio(float64(rows), secs), "1/s")
	set("writes_per_s", ratio(float64(len(writes)), secs), "1/s")
	set("all_p50_ms", percentile(all, 50), "ms")
	set("all_p99_ms", percentile(all, 99), "ms")
	if len(reads) > 0 {
		set("read_p50_ms", percentile(reads, 50), "ms")
		set("read_p99_ms", percentile(reads, 99), "ms")
	}
	if len(ttfr) > 0 {
		set("ttfr_p50_ms", percentile(ttfr, 50), "ms")
		set("ttfr_p99_ms", percentile(ttfr, 99), "ms")
	}
	if len(writes) > 0 {
		set("write_p50_ms", percentile(writes, 50), "ms")
		set("write_p99_ms", percentile(writes, 99), "ms")
	}
	set("tail_percentile", tailPercentile(len(quietLat)), "pct")
	rep.Samples["all"], rep.Samples["reads"], rep.Samples["streams"], rep.Samples["writes"] =
		len(all), len(reads), len(streams), len(writes)
	rep.Samples["slices"], rep.Samples["quiet_slices"], rep.Samples["p99_pool"] = len(rps), len(cut), len(quietLat)
}

// monitor records process CPU at every slice boundary and the peak live
// heap, as of the latest collection, of every slice while a window runs.
type monitor struct {
	start time.Time
	cpu   []time.Duration // CPU used so far, at start and at each slice end
	peaks []uint64        // live-heap peak per finished slice
	stop  chan struct{}
	done  chan struct{}
}

func startMonitor() *monitor {
	m := &monitor{start: time.Now(), cpu: []time.Duration{processCPU()}, stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *monitor) run() {
	defer close(m.done)
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			if now.Sub(m.start) >= time.Duration(len(m.cpu))*sliceLen {
				m.cpu = append(m.cpu, processCPU())
				m.peaks = append(m.peaks, peak)
				peak = 0
			}
		}
	}
}

// finish stops the monitor and waits for it; only whole slices are kept.
func (m *monitor) finish() {
	close(m.stop)
	<-m.done
}

// liveHeapAfterGC runs a full collection and returns the live heap.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

func serveConfigMeta(d *deployment) map[string]any {
	c := d.cfg
	return map[string]any{
		"workers": c.Workers, "queue_depth": c.QueueDepth, "max_rows": c.MaxRows,
		"plan_cache_size": c.PlanCacheSize, "result_cache_size": c.ResultCacheSize,
		"result_cache_bytes": c.ResultCacheBytes, "subplan_cache_bytes": c.SubplanCacheBytes,
		"default_sql_engine": c.DefaultSQLEngine, "nl": c.NL.Relational != "",
		"adaptive": !c.DisableAdaptive, "backend": d.bk.Kind(),
		"note": "zero values select the server defaults",
	}
}

func printReport(rep *report) {
	m := rep.Meta
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d clients=%d trace=%t\n", m.Workload, m.Seed, m.Seconds, m.Clients, m.Trace)
	fmt.Printf("host: %s %s/%s cpu=%q nproc=%d gomaxprocs=%d\n", m.GoVersion, m.GOOS, m.GOARCH, m.CPUModel, m.NumCPU, m.GOMAXPROCS)
	meta, _ := json.Marshal(map[string]any{"dataset": m.Dataset, "serve_config": m.Serve, "backend_config": m.Backend})
	fmt.Printf("config: %s\n", meta)
	fmt.Printf("samples: %v\n", rep.Samples)
	for _, group := range []map[string]metric{rep.All, rep.Layers} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-40s %14.6f %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	for _, e := range rep.Errors {
		fmt.Printf("error: %s\n", e)
	}
}

func writeReport(o options, rep *report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, name), b, 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
