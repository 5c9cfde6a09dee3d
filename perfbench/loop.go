package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"polystorepp/internal/obs"
)

// queryResp is the part of a /query body (or /query/stream summary) the
// benchmark reads. Rows stay raw so checksums see the server's exact bytes.
type queryResp struct {
	Columns      []string          `json:"columns"`
	Rows         []json.RawMessage `json:"rows"`
	RowCount     int               `json:"row_count"`
	Truncated    bool              `json:"truncated"`
	SingleFlight bool              `json:"single_flight"`
	SimLatency   float64           `json:"sim_latency_seconds"`
	SimEnergy    float64           `json:"sim_energy_joules"`
	Trace        *obs.Tree         `json:"trace"`
	OK           bool              `json:"ok"` // /ingest
}

// streamRec is any one NDJSON record of /query/stream.
type streamRec struct {
	Type string `json:"type"`
	queryResp
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// answer is one decoded reply: the (summary) response, every row received,
// and when the first record arrived.
type answer struct {
	resp queryResp
	rows []json.RawMessage
	ttfr time.Duration
}

// sample is one request's client-side outcome. It holds no pointers (see
// arena).
type sample struct {
	sent time.Duration // since epoch
	lat  time.Duration
	ttfr time.Duration // streams only
	rows int32
	kind reqKind
	ok   bool
}

// tracedSample is a sample of a traced window with the request and the
// reply, for the per-layer metrics and the in-process replay.
type tracedSample struct {
	sample
	req  *request
	resp *queryResp // trace tree and report fields; rows dropped
}

// window is the merged outcome of one closed-loop phase.
type window struct {
	start   time.Time
	samples samples
	traced  []tracedSample // traced windows only, in send order
	elapsed time.Duration
	failed  int
	errs    []string
}

func newHTTPClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
}

// send posts one request and decodes the reply; latency runs from send to
// the last byte (for a stream, to its summary record).
func send(ctx context.Context, c *http.Client, url string, r *request, traced bool) (answer, time.Duration, error) {
	body := r.body
	if traced {
		body = r.tracedBody
	}
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+r.kind.path(), bytes.NewReader(body))
	if err != nil {
		return answer{}, 0, err
	}
	resp, err := c.Do(hreq)
	if err != nil {
		return answer{}, 0, err
	}
	defer resp.Body.Close()
	var a answer
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return a, time.Since(t0), fmt.Errorf("%s: status %d: %.200s", r.kind.path(), resp.StatusCode, msg)
	}
	if r.kind != kindStream {
		raw, err := io.ReadAll(resp.Body)
		lat := time.Since(t0)
		if err != nil {
			return a, lat, fmt.Errorf("%s: read body: %w", r.kind.path(), err)
		}
		if err := json.Unmarshal(raw, &a.resp); err != nil {
			return a, lat, fmt.Errorf("%s: decode body: %w", r.kind.path(), err)
		}
		a.rows = a.resp.Rows
		return a, lat, nil
	}
	lat, err := readStream(resp.Body, t0, &a)
	return a, lat, err
}

// readStream consumes an NDJSON result stream: schema, batches, summary,
// then an optional trace record.
func readStream(body io.Reader, t0 time.Time, a *answer) (time.Duration, error) {
	br := bufio.NewReaderSize(body, 64<<10)
	var lat time.Duration
	summary := false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if a.ttfr == 0 {
				a.ttfr = time.Since(t0)
			}
			var rec streamRec
			if derr := json.Unmarshal(line, &rec); derr != nil {
				return lat, fmt.Errorf("stream: decode record: %w", derr)
			}
			switch rec.Type {
			case "batch":
				a.rows = append(a.rows, rec.Rows...)
			case "summary":
				lat = time.Since(t0)
				summary = true
				trace := a.resp.Trace
				a.resp = rec.queryResp
				a.resp.Trace = trace
			case "trace":
				a.resp.Trace = rec.Trace
			case "error":
				return time.Since(t0), fmt.Errorf("stream: in-band error %d: %s", rec.Status, rec.Error)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return time.Since(t0), fmt.Errorf("stream: read: %w", err)
		}
	}
	if !summary {
		return time.Since(t0), fmt.Errorf("stream: no summary record")
	}
	return lat, nil
}

// maxKeptErrors bounds the failure messages a window keeps for the report.
const maxKeptErrors = 5

// runWindow drives the closed loop: each client sends its stream's next
// request as soon as the previous reply is in and checked, with no think
// time, until d elapses or, when perClient > 0, it has sent perClient
// requests. check returns nil for a correct answer. Samples are stored in
// ar.
func runWindow(ar *arena, c *http.Client, url string, streams []stream, d time.Duration, perClient int, traced bool,
	check func(*request, *answer) error) (window, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d+60*time.Second)
	defer cancel()
	start := time.Now()
	deadline := start.Add(d)
	per := make([]window, len(streams))
	storeErrs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(w *window, st stream, storeErr *error) {
			defer wg.Done()
			for sent := 0; time.Now().Before(deadline) && (perClient == 0 || sent < perClient); sent++ {
				r := st.next()
				t0 := time.Now()
				a, lat, err := send(ctx, c, url, &r, traced)
				if err == nil {
					err = check(&r, &a)
				}
				s := sample{kind: r.kind, sent: at(t0), lat: lat, ttfr: a.ttfr, rows: int32(len(a.rows)), ok: err == nil}
				if *storeErr = w.samples.add(ar, s); *storeErr != nil {
					return
				}
				if traced {
					resp := a.resp
					resp.Rows = nil
					w.traced = append(w.traced, tracedSample{s, &r, &resp})
				}
				if err != nil {
					w.failed++
					if len(w.errs) < maxKeptErrors {
						w.errs = append(w.errs, err.Error())
					}
				}
			}
		}(&per[i], streams[i], &storeErrs[i])
	}
	wg.Wait()
	out := window{start: start, elapsed: time.Since(start)}
	for i, w := range per {
		if storeErrs[i] != nil {
			return out, storeErrs[i]
		}
		out.samples = append(out.samples, w.samples...)
		out.traced = append(out.traced, w.traced...)
		out.failed += w.failed
		out.errs = append(out.errs, w.errs...)
	}
	sort.Slice(out.traced, func(i, j int) bool { return out.traced[i].sent < out.traced[j].sent })
	return out, nil
}
