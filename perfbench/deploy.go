package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"polystorepp"
	"polystorepp/internal/adapter"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/feedback"
	"polystorepp/internal/hw"
	"polystorepp/internal/relational"
)

// spec is one workload's deployment: dataset sizes and serving/backend
// settings. Everything a run does is derived from the spec and the seed.
type spec struct {
	name      string
	patients  int // clinical scenario size; 0 leaves it out
	customers int // retail scenario size; 0 leaves it out
	txPerCust int
	durable   bool // WAL backend (walSync) instead of memory
	maxRows   int  // ServeConfig.MaxRows; 0 keeps the default
	snapBytes int64
	rounds    int // fresh deployments the timed window is split over (0 means 1)
	warmup    int // warm-up requests per run, split over rounds and clients
	clients   int // closed-loop width, at most maxClients
	stream    func(seed int64, client int, ds *dataset) stream
}

var specs = map[string]spec{
	"serve-hot": {name: "serve-hot", patients: 300, customers: 400, txPerCust: 20, warmup: 40000, clients: 1,
		stream: func(seed int64, client int, ds *dataset) stream {
			return newHotStream(seed, client, ds.hotPool)
		}},
	"scan-export": {name: "scan-export", customers: 2000, txPerCust: 100, maxRows: scanMaxRows, warmup: 160, clients: 2,
		stream: func(seed int64, client int, ds *dataset) stream {
			return newScanStream(seed, client, int64(ds.sizes["transactions"]))
		}},
	"hetero-realtime": {name: "hetero-realtime", patients: 200, maxRows: 4000, warmup: 4000, clients: 2,
		stream: func(seed int64, client int, ds *dataset) stream {
			return newHeteroStream(seed, client, ds.sizes["patients"])
		}},
	// A 2 MiB snapshot trigger completes a compaction about every second.
	// At 256 KiB they ran several times a second, and how many fell into
	// each second set its write rate in a few discrete levels.
	"ingest-durable": {name: "ingest-durable", patients: 100, customers: 100, txPerCust: 20,
		durable: true, snapBytes: 2 << 20, rounds: 5, warmup: 10000, clients: 2,
		stream: func(seed int64, client int, ds *dataset) stream {
			return newIngestStream(seed, client, ds.sizes["customers"])
		}},
}

// workloadNames is the fixed order workloads are listed in.
var workloadNames = []string{"serve-hot", "scan-export", "hetero-realtime", "ingest-durable"}

// dataset is one seeded copy of a spec's data, plus the request pool
// serve-hot draws from.
type dataset struct {
	clinical *datagen.Clinical
	retail   *datagen.Retail
	sizes    map[string]int
	hotPool  []request
}

func generate(sp spec, seed int64) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{sizes: map[string]int{}}
	var err error
	if sp.patients > 0 {
		if ds.clinical, err = datagen.GenerateClinical(rng, sp.patients); err != nil {
			return nil, fmt.Errorf("generate clinical data: %w", err)
		}
		ds.sizes["patients"] = sp.patients
		for _, t := range []string{"admissions", "stays"} {
			ds.sizes[t] = tableRows(ds.clinical.Relational, t)
		}
		ds.sizes["vitals_points"] = sp.patients * 2 * 48
	}
	if sp.customers > 0 {
		if ds.retail, err = datagen.GenerateRetail(rng, sp.customers, sp.txPerCust); err != nil {
			return nil, fmt.Errorf("generate retail data: %w", err)
		}
		ds.sizes["customers"] = sp.customers
		ds.sizes["transactions"] = tableRows(ds.retail.Relational, "transactions")
		ds.sizes["click_points"] = sp.customers * 96
	}
	if sp.name == "serve-hot" {
		ds.hotPool = hotPool(seed, sp.patients, sp.customers)
		ds.sizes["read_pool"] = len(ds.hotPool)
	}
	return ds, nil
}

func tableRows(s *relational.Store, table string) int {
	t, err := s.Table(table)
	if err != nil {
		return 0
	}
	return t.Rows()
}

// attach binds the dataset's durable stores to a backend.
func (ds *dataset) attach(bk polystore.Backend) {
	if c := ds.clinical; c != nil {
		bk.AttachRelational("db-clinical", c.Relational)
		bk.AttachTimeseries("ts-vitals", c.Timeseries)
	}
	if r := ds.retail; r != nil {
		bk.AttachRelational("db-retail", r.Relational)
		bk.AttachTimeseries("ts-clicks", r.Timeseries)
		bk.AttachKV("kv-events", r.KV)
	}
}

// options registers the dataset's engines the way polyserve does.
func (ds *dataset) options() []polystore.Option {
	var opts []polystore.Option
	if c := ds.clinical; c != nil {
		opts = append(opts,
			polystore.WithRelational("db-clinical", c.Relational),
			polystore.WithTimeseries("ts-vitals", c.Timeseries),
			polystore.WithText("txt-notes", c.Text),
			polystore.WithStream("st-devices", c.Stream))
	}
	if r := ds.retail; r != nil {
		opts = append(opts,
			polystore.WithRelational("db-retail", r.Relational),
			polystore.WithTimeseries("ts-clicks", r.Timeseries),
			polystore.WithKV("kv-events", r.KV))
	}
	return append(opts, polystore.WithML("ml"))
}

// adapters is options' counterpart for a bare core.Runtime, which the
// in-process layer driver needs and polystore.System does not expose.
func (ds *dataset) adapters(seed int64) []adapter.Adapter {
	var out []adapter.Adapter
	if c := ds.clinical; c != nil {
		out = append(out,
			adapter.NewRelational("db-clinical", relational.NewEngine(c.Relational)),
			adapter.NewTimeseries("ts-vitals", c.Timeseries),
			adapter.NewText("txt-notes", c.Text),
			adapter.NewStream("st-devices", c.Stream))
	}
	if r := ds.retail; r != nil {
		out = append(out,
			adapter.NewRelational("db-retail", relational.NewEngine(r.Relational)),
			adapter.NewTimeseries("ts-clicks", r.Timeseries),
			adapter.NewKV("kv-events", r.KV))
	}
	return append(out, adapter.NewML("ml", seed))
}

func accelerators() []*hw.Device { return []*hw.Device{hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()} }

var compilerOpts = polystore.Options{Level: 3, Accel: true}

// serveConfig is the deployment's ServeConfig: defaults except where the
// workload's spec sets a field.
func (sp spec) serveConfig(ds *dataset) polystore.ServeConfig {
	cfg := polystore.ServeConfig{MaxRows: sp.maxRows}
	if ds.clinical != nil {
		cfg.DefaultSQLEngine = "db-clinical"
		cfg.DefaultTextEngine = "txt-notes"
		cfg.NL = polystore.NLBinding{Relational: "db-clinical", Timeseries: "ts-vitals", Text: "txt-notes", ML: "ml"}
	} else {
		cfg.DefaultSQLEngine = "db-retail"
	}
	return cfg
}

// walSync is the durable backend's sync policy: writes are acknowledged
// after the buffered WAL write and fsynced in the background about every
// 100 ms. Under "group" (ack after fsync) a write waited for its own fsync,
// which was half its CPU and three quarters of its latency, so the workload
// measured the shared host's disk: in ten back-to-back runs of the same
// code its p99 rose from 0.26 to 0.40 ms and its throughput fell 17%.
const walSync = "interval"

func (sp spec) backendConfig(dir string) polystore.BackendConfig {
	return polystore.BackendConfig{Dir: dir, Sync: walSync, SnapshotBytes: sp.snapBytes}
}

// openBackend opens the spec's backend over ds (a fresh WAL directory under
// work for durable specs), recovers, starts journaling, and persists the
// seed. It returns the backend, its directory ("" for memory) and the time
// Recover took.
func openBackend(sp spec, ds *dataset, work string) (polystore.Backend, string, time.Duration, error) {
	kind, dir := "memory", ""
	if sp.durable {
		var err error
		if dir, err = os.MkdirTemp(work, "wal-"); err != nil {
			return nil, "", 0, fmt.Errorf("wal dir: %w", err)
		}
		kind = "wal"
	}
	bk, err := polystore.OpenBackend(kind, sp.backendConfig(dir))
	if err != nil {
		return nil, dir, 0, fmt.Errorf("open %s backend: %w", kind, err)
	}
	ds.attach(bk)
	t0 := time.Now()
	rec, err := bk.Recover()
	recoverTime := time.Since(t0)
	if err == nil {
		err = bk.Start()
	}
	if err == nil && !rec.Recovered {
		err = bk.Checkpoint()
	}
	if err != nil {
		bk.Close()
		return nil, dir, 0, fmt.Errorf("%s backend: %w", kind, err)
	}
	return bk, dir, recoverTime, nil
}

// deployment is one served System: data, backend, HTTP listener.
type deployment struct {
	spec      spec
	data      *dataset
	sys       *polystore.System
	bk        polystore.Backend
	dir       string
	cfg       polystore.ServeConfig
	url       string
	srv       *http.Server
	served    chan error
	recoverIn time.Duration
}

// deploy builds and serves the spec's System on a loopback port and returns
// once the listener answers /healthz: the span setup_s measures.
func deploy(sp spec, seed int64, work string) (*deployment, error) {
	ds, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	bk, dir, rec, err := openBackend(sp, ds, work)
	if err != nil {
		return nil, err
	}
	d := &deployment{spec: sp, data: ds, bk: bk, dir: dir, recoverIn: rec, cfg: sp.serveConfig(ds)}
	d.cfg.Backend = bk
	opts := append(ds.options(),
		polystore.WithBackend(bk),
		polystore.WithAccelerators(hw.Coprocessor, accelerators()...),
		polystore.WithSeed(seed),
		polystore.WithCompilerOptions(compilerOpts))
	d.sys = polystore.New(opts...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: d.sys.Handler(d.cfg)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	if err := waitHealthy(d.url); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopServing shuts the listener down and waits for the serve goroutine.
func (d *deployment) stopServing() error {
	if d.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv = nil
	return err
}

// close stops serving, closes the backend and removes its directory.
func (d *deployment) close() error {
	err := d.stopServing()
	if d.bk != nil {
		if cerr := d.bk.Close(); cerr != nil && err == nil {
			err = cerr
		}
		d.bk = nil
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
		d.dir = ""
	}
	return err
}

// driverEnv is an identically built deployment without HTTP: a bare runtime
// configured the way polystore.New and the server configure theirs, which
// the in-process layer driver calls directly.
type driverEnv struct {
	rt  *core.Runtime
	bk  polystore.Backend
	dir string
	cfg polystore.ServeConfig
}

func newDriverEnv(sp spec, seed int64, work string) (*driverEnv, error) {
	ds, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	bk, dir, _, err := openBackend(sp, ds, work)
	if err != nil {
		return nil, err
	}
	rt := core.NewRuntime(hw.NewHostCPU(),
		core.WithDurabilityBarrier(bk),
		core.WithAccelerators(hw.Coprocessor, accelerators()...))
	for _, a := range ds.adapters(seed) {
		rt.Register(a)
	}
	rt.ConfigureFeedback(feedback.Config{})
	return &driverEnv{rt: rt, bk: bk, dir: dir, cfg: sp.serveConfig(ds)}, nil
}

func (e *driverEnv) close() {
	e.bk.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}
