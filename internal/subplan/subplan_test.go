package subplan

import (
	"context"
	"sync"
	"testing"

	"polystorepp/internal/cast"
)

func testEntry(t *testing.T, rows int) *Entry {
	t.Helper()
	schema := cast.MustSchema(cast.Column{Name: "v", Type: cast.Int64})
	b := cast.NewBatch(schema, rows)
	for i := 0; i < rows; i++ {
		if err := b.AppendRow(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return &Entry{Output: b, Costs: make([]NodeCost, 2), Bytes: b.ByteSize()}
}

func TestCachePutGet(t *testing.T) {
	c := NewCache(1<<20, 0)
	e := testEntry(t, 10)
	if _, ok := c.Put("k", e, e.Cost(), "anon"); !ok {
		t.Fatal("put bypassed a small entry")
	}
	got, ok := c.Get("k")
	if !ok || got != e {
		t.Fatalf("get = %v, %v", got, ok)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Cost != e.Bytes+entryOverheadBytes || s.MaxCost != 1<<20 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheOversizedBypass(t *testing.T) {
	c := NewCache(256, 0) // smaller than any real batch + overhead
	e := testEntry(t, 100)
	if _, ok := c.Put("k", e, e.Cost(), "anon"); ok {
		t.Fatal("oversized entry admitted")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("bypassed entry is retrievable")
	}
}

func TestCacheByteBoundEvicts(t *testing.T) {
	e := testEntry(t, 100)
	per := e.Cost()
	c := NewCache(3*per, 0)
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		if _, ok := c.Put(k, testEntry(t, 100), per, "anon"); !ok {
			t.Fatalf("put %s bypassed", k)
		}
	}
	s := c.Stats()
	if s.Cost > 3*per {
		t.Fatalf("bytes %d exceed bound %d", s.Cost, 3*per)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived past the byte bound")
	}
	if _, ok := c.Get("e"); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestCacheIncumbentWins(t *testing.T) {
	c := NewCache(1<<20, 0)
	first := testEntry(t, 5)
	second := testEntry(t, 5)
	c.Put("k", first, first.Cost(), "anon")
	c.Put("k", second, second.Cost(), "anon")
	got, _ := c.Get("k")
	if got != first {
		t.Fatal("racing fill displaced the incumbent entry")
	}
}

func TestFlightLeaderFollower(t *testing.T) {
	f := NewFlight[int]()
	lease, leader := f.Acquire("k")
	if !leader || lease == nil {
		t.Fatalf("first acquire: leader=%v lease=%v", leader, lease)
	}
	l2, leader2 := f.Acquire("k")
	if leader2 || l2 != lease {
		t.Fatal("second acquire became leader or got another lease")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l2.Wait(canceled); err != context.Canceled {
		t.Fatalf("wait before release = %v, want the follower's own context error", err)
	}
	f.Release("k", 7, nil)
	if v, err := l2.Wait(context.Background()); v != 7 || err != nil {
		t.Fatalf("follower saw (%d, %v), want the leader's (7, nil)", v, err)
	}

	// After release the key is free: a new leader can be elected.
	if _, l3 := f.Acquire("k"); !l3 {
		t.Fatal("key not released")
	}
	f.Release("k", 0, nil)
	f.Release("k", 0, nil) // unheld release is a no-op
}

// TestFlightConcurrent hammers one key from many goroutines under -race:
// exactly one leader per generation, every follower eventually wakes.
func TestFlightConcurrent(t *testing.T) {
	f := NewFlight[struct{}]()
	const n = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	leaders := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease, leader := f.Acquire("hot")
			if leader {
				mu.Lock()
				leaders++
				mu.Unlock()
				f.Release("hot", struct{}{}, nil)
				return
			}
			if _, err := lease.Wait(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if leaders == 0 {
		t.Fatal("no leader elected")
	}
}
