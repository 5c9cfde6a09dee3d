package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unicode"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {5_000_000, 99.99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {75, 8}, {99, 10}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestSelfTimeUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name string
		kids []interval
		want int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		// Concurrent node spans overlap; the overlap counts once.
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}, {25, 50}}, 50},
		// Children are clipped to the parent.
		{"clipped", []interval{{-20, 10}, {80, 150}}, 70},
		{"covering", []interval{{0, 50}, {40, 100}}, 0},
		{"empty spans", []interval{{10, 10}, {30, 20}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSliceRatesSplitsRequestsAcrossSlices(t *testing.T) {
	t0 := time.Unix(0, 0)
	ss := samples{{
		{sent: at(t0), lat: 500 * time.Millisecond, ok: true},
		// Half in slice 0, half in slice 1.
		{sent: at(t0.Add(750 * time.Millisecond)), lat: 500 * time.Millisecond, ok: true},
	}, {
		{sent: at(t0.Add(1100 * time.Millisecond)), lat: time.Millisecond, ok: false},
	}}
	got := sliceRates(ss, t0, 2)
	if len(got) != 2 || got[0] != 1.5 || got[1] != 0.5 {
		t.Fatalf("sliceRates = %v, want [1.5 0.5]", got)
	}
}

func TestSamplesSpanOffHeapChunks(t *testing.T) {
	var ar arena
	defer ar.free()
	var ss samples
	n := chunkSamples + 3
	for i := 0; i < n; i++ {
		if err := ss.add(&ar, sample{sent: time.Duration(i), rows: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(ss) != 2 || ss.count() != n {
		t.Fatalf("%d samples in %d chunks, want %d in 2", ss.count(), len(ss), n)
	}
	i := 0
	for _, c := range ss {
		for _, s := range c {
			if s.sent != time.Duration(i) || s.rows != int32(i) {
				t.Fatalf("sample %d reads back as %+v", i, s)
			}
			i++
		}
	}
}

func TestQuietRateDropsTheSlowestQuarter(t *testing.T) {
	rates := []float64{10, 1, 9, 8, 2, 7, 6, 5}
	// Eight slices: the two slowest (1 and 2) are set aside.
	if got, want := quietRate(rates), (10.0+9+8+7+6+5)/6; got != want {
		t.Fatalf("quietRate = %v, want %v", got, want)
	}
	if rates[1] != 1 {
		t.Fatal("quietRate reordered its input")
	}
	if got := quietRate([]float64{3, 4, 5}); got != 4 {
		t.Fatalf("three slices keep all three: quietRate = %v, want 4", got)
	}
}

func TestDeckDealsExactProportions(t *testing.T) {
	d := newDeck(rand.New(rand.NewSource(1)), 8, 9, 3)
	for round := 0; round < 5; round++ {
		counts := make([]int, 3)
		for i := 0; i < 20; i++ {
			counts[d.deal()]++
		}
		if counts[0] != 8 || counts[1] != 9 || counts[2] != 3 {
			t.Fatalf("round %d dealt %v, want [8 9 3]", round, counts)
		}
	}
}

// streamsFor builds each workload's client streams over synthetic sizes
// (no data is generated; the streams only need the sizes).
func streamsFor(seed int64, client int) map[string]stream {
	return map[string]stream{
		"serve-hot":       newHotStream(seed, client, hotPool(seed, 300, 400)),
		"scan-export":     newScanStream(seed, client, 200_000),
		"hetero-realtime": newHeteroStream(seed, client, 200),
		"ingest-durable":  newIngestStream(seed, client, 100),
	}
}

func TestStreamsRepeatForASeed(t *testing.T) {
	const n = 500
	bodies := func(seed int64, client int) map[string][][]byte {
		out := map[string][][]byte{}
		for name, st := range streamsFor(seed, client) {
			for i := 0; i < n; i++ {
				out[name] = append(out[name], st.next().body)
			}
		}
		return out
	}
	a, b, other, peer := bodies(7, 0), bodies(7, 0), bodies(8, 0), bodies(7, 1)
	for _, name := range workloadNames {
		for i := range a[name] {
			if !bytes.Equal(a[name][i], b[name][i]) {
				t.Fatalf("%s: request %d differs for the same seed:\n%s\n%s", name, i, a[name][i], b[name][i])
			}
		}
		if equalSeq(a[name], other[name]) {
			t.Errorf("%s: seeds 7 and 8 produced the same sequence", name)
		}
		if equalSeq(a[name], peer[name]) {
			t.Errorf("%s: clients 0 and 1 produced the same sequence", name)
		}
	}
}

func equalSeq(a, b [][]byte) bool {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestScanKeysAreDistinctAcrossClients(t *testing.T) {
	seen := map[string]bool{}
	for client := 0; client < maxClients; client++ {
		st := newScanStream(3, client, 200_000)
		for i := 0; i < 2000; i++ {
			r := st.next()
			key := fmt.Sprint(r.lo, r.hi)
			if seen[key] {
				t.Fatalf("client %d repeated range %s", client, key)
			}
			seen[key] = true
			if n := r.hi - r.lo; n < scanMinRows || n > scanMaxRows || r.lo < 0 || r.hi > 200_000 {
				t.Fatalf("range [%d, %d) out of bounds", r.lo, r.hi)
			}
		}
	}
}

func TestClientsNeverOutnumberCores(t *testing.T) {
	for _, name := range workloadNames {
		if c := specs[name].clients; c < 1 || c > maxClients {
			t.Errorf("%s runs %d clients, want 1..%d", name, c, maxClients)
		}
	}
}

func TestHotPoolSize(t *testing.T) {
	pool := hotPool(1, 300, 400)
	if len(pool) != 1024 {
		t.Fatalf("pool has %d reads, want 1024", len(pool))
	}
	distinct := map[string]bool{}
	for _, r := range pool {
		distinct[string(r.body)] = true
	}
	if len(distinct) != len(pool) {
		t.Fatalf("pool has %d distinct reads of %d", len(distinct), len(pool))
	}
}

// TestHotPoolClassesIgnoreSeed pins the rank -> class pattern of serve-hot:
// two seeds choose different reads, but the same kind of read at every rank.
func TestHotPoolClassesIgnoreSeed(t *testing.T) {
	class := func(r request) string {
		q := r.query
		st := ""
		if q.Frontend == "sql" {
			st = strings.Map(func(c rune) rune {
				if unicode.IsDigit(c) {
					return -1
				}
				return c
			}, q.Statement)
		}
		return q.Frontend + "|" + q.Engine + "|" + st
	}
	a, b := hotPool(1, 300, 400), hotPool(2, 300, 400)
	same := true
	for i := range a {
		if class(a[i]) != class(b[i]) {
			t.Fatalf("rank %d: class %q for seed 1, %q for seed 2", i, class(a[i]), class(b[i]))
		}
		same = same && bytes.Equal(a[i].body, b[i].body)
	}
	if same {
		t.Fatal("seeds 1 and 2 produced the same pool")
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// every answer to be correct and every declared metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds per workload")
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				rep, err := run(options{workload: name, seed: 1, seconds: 2, trace: trace, work: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted == 0 {
					t.Fatalf("result %+v, errors %v", rep.Result, rep.Errors)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(rep.Result.Metrics) != len(want) {
					t.Fatalf("%d metrics reported, want %d", len(rep.Result.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := rep.Result.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
			})
		}
	}
}
