package lru

import (
	"fmt"
	"sync"
	"testing"
)

// The single-owner cases below pin the plain cost-bounded LRU behaviour:
// with one owner no share is enforced, so only the entry and cost bounds
// bind.

func TestCostEviction(t *testing.T) {
	c := NewTenantCost[string](100, 10, 0)
	c.Put("a", "a", 4, "o")
	c.Put("b", "b", 4, "o")
	if _, ok := c.Get("a"); !ok { // a is now MRU
		t.Fatal("a missing")
	}
	c.Put("c", "c", 4, "o") // cost 12 > 10: evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being MRU")
	}
	if s := c.Stats(); s.Cost != 8 || s.Entries != 2 {
		t.Fatalf("cost=%d len=%d, want 8, 2", s.Cost, s.Entries)
	}
}

func TestCostOversizedBypass(t *testing.T) {
	c := NewTenantCost[string](100, 10, 0)
	c.Put("small", "s", 2, "o")
	if _, admitted := c.Put("huge", "h", 11, "o"); admitted {
		t.Fatal("oversized entry admitted")
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry cached")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("bypass evicted an unrelated entry")
	}
	s := c.Stats()
	if s.Cost != 2 || s.Entries != 1 {
		t.Fatalf("cost=%d len=%d after bypass, want 2, 1", s.Cost, s.Entries)
	}
	if s.Bypassed != 1 || s.Evictions != 0 {
		t.Fatalf("bypassed=%d evictions=%d, want 1, 0", s.Bypassed, s.Evictions)
	}
}

func TestCostEntryCapStillHolds(t *testing.T) {
	c := NewTenantCost[int](2, 0, 0) // no cost bound
	c.Put("a", 1, 100, "o")
	c.Put("b", 2, 100, "o")
	c.Put("c", 3, 100, "o")
	if c.Len() != 2 {
		t.Fatalf("len = %d, want entry cap 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
}

// TestCostZeroCostCannotEvadeBound pins the clamp on free entries: a flood
// of 0-cost values must not grow the cache past its cost bound (each entry
// charges at least 1), and the evictions it forces are counted.
func TestCostZeroCostCannotEvadeBound(t *testing.T) {
	c := NewTenantCost[int](1<<20, 8, 0)
	const n = 100
	for i := 0; i < n; i++ {
		if _, admitted := c.Put(fmt.Sprintf("k%d", i), i, 0, "o"); !admitted {
			t.Fatalf("zero-cost entry %d bypassed", i)
		}
	}
	s := c.Stats()
	if s.Entries != 8 {
		t.Fatalf("len = %d after %d zero-cost puts, want cost bound 8", s.Entries, n)
	}
	if s.Cost != 8 || c.OwnerCosts()["o"] != 8 {
		t.Fatalf("cost = %d, owner charge = %d, want 8 (1 per clamped entry)", s.Cost, c.OwnerCosts()["o"])
	}
	if s.Evictions != n-8 {
		t.Fatalf("evictions = %d, want %d", s.Evictions, n-8)
	}
}

// TestCostNegativeCostCannotWedgeEviction pins that a negative cost cannot
// drive the running total negative — which would let later entries
// accumulate past the bound before eviction ever fires.
func TestCostNegativeCostCannotWedgeEviction(t *testing.T) {
	c := NewTenantCost[int](100, 10, 0)
	c.Put("neg", 1, -50, "o")
	if s := c.Stats(); s.Cost != 1 {
		t.Fatalf("cost = %d after negative-cost put, want clamp to 1", s.Cost)
	}
	c.Put("a", 2, 10, "o") // 1 + 10 > 10: must evict "neg", not absorb it as headroom
	if _, ok := c.Get("neg"); ok {
		t.Fatal("negative-cost entry survived past the cost bound")
	}
	if s := c.Stats(); s.Cost != 10 || s.Entries != 1 {
		t.Fatalf("cost=%d len=%d, want 10, 1", s.Cost, s.Entries)
	}
}

func TestCostPutKeepsIncumbent(t *testing.T) {
	c := NewTenantCost[int](4, 100, 0)
	if got, ok := c.Put("k", 1, 10, "o"); !ok || got != 1 {
		t.Fatalf("first put = (%d, %v)", got, ok)
	}
	if got, ok := c.Put("k", 2, 50, "o"); !ok || got != 1 {
		t.Fatalf("second put = (%d, %v), want incumbent (1, true)", got, ok)
	}
	if s := c.Stats(); s.Cost != 10 {
		t.Fatalf("cost = %d, want incumbent's 10", s.Cost)
	}
}

// TestCostCacheRemove pins the removal path that LRU and share eviction
// share: the entry's cost leaves both the global total and its owner's
// ledger, an emptied owner disappears, and the removal counts as an
// eviction.
func TestCostCacheRemove(t *testing.T) {
	c := NewTenantCost[int](10, 100, 0)
	c.Put("a", 1, 10, "alice")
	c.Put("b", 2, 20, "bob")
	c.mu.Lock()
	c.remove(c.entries["a"])
	c.mu.Unlock()
	if _, ok := c.Get("a"); ok {
		t.Fatal("removed entry still cached")
	}
	s := c.Stats()
	if s.Cost != 20 || s.Entries != 1 || s.Evictions != 1 || s.Owners != 1 {
		t.Fatalf("stats after remove = %+v", s)
	}
	if owners := c.OwnerCosts(); len(owners) != 1 || owners["bob"] != 20 {
		t.Fatalf("owner charges after remove = %v", owners)
	}
}

func TestTenantCostSingleOwnerUncapped(t *testing.T) {
	c := NewTenantCost[int](100, 1000, 0.5)
	// One owner may use the whole budget: the share only binds under
	// contention.
	for i, k := range []string{"a", "b", "c", "d"} {
		if _, ok := c.Put(k, i, 250, "alice"); !ok {
			t.Fatalf("put %q rejected", k)
		}
	}
	s := c.Stats()
	if s.Cost != 1000 || c.OwnerCosts()["alice"] != 1000 || s.Owners != 1 {
		t.Fatalf("cost=%d alice=%d owners=%d", s.Cost, c.OwnerCosts()["alice"], s.Owners)
	}
	if s.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", s.Evictions)
	}
}

func TestTenantCostShareEnforcedUnderContention(t *testing.T) {
	c := NewTenantCost[string](100, 1000, 0.5)
	c.Put("bob-1", "x", 100, "bob")
	// Alice floods: with bob present her charge is capped at 500, evicting
	// her own oldest entries — never bob's.
	for _, k := range []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7"} {
		c.Put(k, "y", 100, "alice")
	}
	owners := c.OwnerCosts()
	if got := owners["alice"]; got != 500 {
		t.Fatalf("alice charge = %d, want 500", got)
	}
	if got := owners["bob"]; got != 100 {
		t.Fatalf("bob charge = %d, want 100 (victim of alice's flood)", got)
	}
	if _, ok := c.Get("bob-1"); !ok {
		t.Fatal("bob's entry evicted by alice's flood")
	}
	// Alice's oldest entries went first.
	for _, gone := range []string{"a1", "a2"} {
		if _, ok := c.Get(gone); ok {
			t.Fatalf("%q should have been evicted", gone)
		}
	}
	for _, kept := range []string{"a3", "a4", "a5", "a6", "a7"} {
		if _, ok := c.Get(kept); !ok {
			t.Fatalf("%q should have survived", kept)
		}
	}
}

func TestTenantCostGlobalEvictionRefundsOwner(t *testing.T) {
	c := NewTenantCost[int](100, 300, 1) // share 1: only the global bound binds
	c.Put("a", 1, 150, "alice")
	c.Put("b", 2, 150, "bob")
	c.Put("c", 3, 150, "bob") // over budget: evicts LRU ("a"), refunds alice
	owners := c.OwnerCosts()
	if got := owners["alice"]; got != 0 {
		t.Fatalf("alice charge = %d after global eviction, want 0", got)
	}
	if len(owners) != 1 {
		t.Fatalf("owners = %d, want 1 (alice fully refunded)", len(owners))
	}
	if got := owners["bob"]; got != 300 {
		t.Fatalf("bob charge = %d, want 300", got)
	}
}

func TestTenantCostIncumbentKeepsOriginalOwner(t *testing.T) {
	c := NewTenantCost[int](100, 1000, 0.5)
	c.Put("k", 1, 100, "alice")
	got, ok := c.Put("k", 2, 999, "bob")
	if !ok || got != 1 {
		t.Fatalf("incumbent put = (%d, %v), want (1, true)", got, ok)
	}
	if owners := c.OwnerCosts(); owners["bob"] != 0 || owners["alice"] != 100 {
		t.Fatalf("charges: alice=%d bob=%d", owners["alice"], owners["bob"])
	}
}

func TestTenantCostOversizedBypassed(t *testing.T) {
	c := NewTenantCost[int](100, 100, 0.5)
	if _, ok := c.Put("big", 1, 200, "alice"); ok {
		t.Fatal("oversized entry admitted")
	}
	if s := c.Stats(); s.Owners != 0 || s.Entries != 0 {
		t.Fatal("bypassed entry left a charge behind")
	}
}

func TestTenantCostSingleHugeEntryToleratedUnderContention(t *testing.T) {
	c := NewTenantCost[int](100, 1000, 0.5)
	c.Put("b", 1, 100, "bob")
	// Alice's single 700-cost entry exceeds her 500 share but is her only
	// entry: admitted (the global bound still protects the cache).
	if _, ok := c.Put("a", 2, 700, "alice"); !ok {
		t.Fatal("single over-share entry rejected")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("over-share entry self-evicted")
	}
	// Her next insert trims back toward the share, evicting her oldest.
	c.Put("a2", 3, 100, "alice")
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest over-share entry survived the trim")
	}
	if got := c.OwnerCosts()["alice"]; got != 100 {
		t.Fatalf("alice charge = %d after trim, want 100", got)
	}
}

func TestTenantCostTinyBudgetShareClampsToOne(t *testing.T) {
	// share * maxCost < 1 truncates to a zero limit, which used to trim every
	// contended tenant down to a single entry no matter how cheap its
	// entries were. The limit clamps to >= 1, so unit-cost entries behave
	// like any other cost that exceeds the share: the newcomer is spared and
	// older entries trim one at a time, not wholesale.
	c := NewTenantCost[int](100, 4, 0.1) // share limit would truncate to 0
	c.Put("bob-1", 1, 1, "bob")
	c.Put("a1", 1, 1, "alice")
	c.Put("a2", 2, 1, "alice")
	// Alice is over the clamped limit (1), so her older entry trims — but
	// she keeps the newest rather than being flushed to nothing.
	if _, ok := c.Get("a2"); !ok {
		t.Fatal("newest entry evicted under tiny-budget share")
	}
	if got := c.OwnerCosts()["alice"]; got < 1 {
		t.Fatalf("alice charge = %d, want >= 1 (clamped share)", got)
	}
	if _, ok := c.Get("bob-1"); !ok {
		t.Fatal("bob's entry evicted by alice's inserts")
	}
}

// TestTenantCostConcurrentOwners hammers one small, contended cache from
// many goroutines under -race. Every operation takes the cache's own lock,
// so afterwards the ledgers must still agree: the global cost is the sum of
// the owner charges, and neither bound is exceeded.
func TestTenantCostConcurrentOwners(t *testing.T) {
	const maxEntries, maxCost = 16, 400
	c := NewTenantCost[int](maxEntries, maxCost, 0.5)
	owners := []string{"alice", "bob", "carol"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				owner := owners[(g+i)%len(owners)]
				c.Put(key, i, int64(1+(g+i)%60), owner)
				c.Get(fmt.Sprintf("k%d", i%64))
				if i%50 == 0 {
					c.Stats()
					c.OwnerCosts()
				}
			}
		}(g)
	}
	wg.Wait()
	var sum int64
	for _, cost := range c.OwnerCosts() {
		sum += cost
	}
	s := c.Stats()
	if s.Cost != sum {
		t.Fatalf("cost = %d, owner charges sum to %d", s.Cost, sum)
	}
	if c.Len() > maxEntries || s.Cost > maxCost {
		t.Fatalf("len=%d cost=%d exceed bounds %d, %d", c.Len(), s.Cost, maxEntries, maxCost)
	}
	if s.Owners != len(c.OwnerCosts()) {
		t.Fatalf("owners = %d, ledger has %d", s.Owners, len(c.OwnerCosts()))
	}
}
