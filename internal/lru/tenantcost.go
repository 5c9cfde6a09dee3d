package lru

import (
	"container/list"
	"sync"
)

// TenantCostCache is the memo substrate under both byte-bounded serving
// caches (whole results and subplan intermediates): a mutex-guarded LRU
// bounded by entry count and by total cost (e.g. result bytes), so one
// bound can mean "at most 64 MiB of cached results" instead of only "at
// most 256 results". Unlike Cache it IS safe for concurrent use, taking its
// lock once per operation.
//
// Entries whose cost alone exceeds the cost bound are bypassed rather than
// admitted (admitting one would evict the whole cache for an entry unlikely
// to be re-served before aging out). Every entry is charged to the tenant
// that inserted it, and when more than one tenant holds entries, each
// tenant's total charge is capped at a share of the cost budget. A tenant
// flooding the cache with its own results then evicts its *own* oldest
// entries, not everyone else's — cache pollution stops being a cross-tenant
// attack. With a single owner (the common single-tenant deployment) no
// share is enforced and the full budget applies.
type TenantCostCache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxCost    int64   // <= 0 means no cost bound
	share      float64 // per-owner fraction of maxCost, enforced when owners > 1
	cost       int64
	evictions  int64
	bypassed   int64
	order      *list.List // front = most recently used; values are *costEntry[V]
	entries    map[string]*list.Element
	owners     map[string]*ownerCharge
}

type costEntry[V any] struct {
	key     string
	val     V
	cost    int64
	owner   string
	byOwner *list.Element // this entry's cell in its owner's insertion order
}

// ownerCharge is one tenant's ledger: its summed charge and its entries in
// insertion order (front = oldest; values are cells of the cache's order).
type ownerCharge struct {
	cost  int64
	order *list.List
}

// DefaultTenantShare is the per-tenant cost fraction when none is
// configured: half the budget, so two contending tenants split it evenly
// and no one tenant can hold more than half while contended.
const DefaultTenantShare = 0.5

// NewTenantCost returns a cache bounded to maxEntries entries (< 1 treated
// as 1) and maxCost total cost (<= 0 disables the cost bound). share is the
// per-owner fraction of maxCost enforced while more than one owner holds
// entries; share <= 0 selects DefaultTenantShare, share >= 1 disables
// per-owner capping.
func NewTenantCost[V any](maxEntries int, maxCost int64, share float64) *TenantCostCache[V] {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if share <= 0 {
		share = DefaultTenantShare
	}
	return &TenantCostCache[V]{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		share:      share,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		owners:     make(map[string]*ownerCharge),
	}
}

// Get returns the value under key, marking it most recently used.
func (t *TenantCostCache[V]) Get(key string) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*costEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores v under key with the given cost, charged to owner. It returns
// the value now cached plus whether the key is cached at all: the incumbent
// when the key is already present (racing fills produce equivalent values;
// the incumbent's cost and owner are kept), and (v, false) when the entry
// is oversized — its cost alone exceeds the cost bound — and was bypassed.
// After an insert, if more than one owner holds entries and owner's total
// charge exceeds its share of the budget, owner's oldest entries are
// evicted (never the entry just inserted) until it fits.
//
// Costs below 1 are clamped to 1: every entry occupies real memory beyond
// its payload, and admitting "free" entries would let a flood of zero-cost
// (or, worse, negative-cost) values grow the cache unboundedly under an
// intact-looking cost bound — or drive the running total negative, wedging
// eviction permanently.
func (t *TenantCostCache[V]) Put(key string, v V, cost int64, owner string) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*costEntry[V]).val, true
	}
	if cost < 1 {
		cost = 1
	}
	if t.maxCost > 0 && cost > t.maxCost {
		t.bypassed++
		return v, false
	}
	oc := t.owners[owner]
	if oc == nil {
		oc = &ownerCharge{order: list.New()}
		t.owners[owner] = oc
	}
	e := &costEntry[V]{key: key, val: v, cost: cost, owner: owner}
	el := t.order.PushFront(e)
	e.byOwner = oc.order.PushBack(el)
	t.entries[key] = el
	t.cost += cost
	oc.cost += cost
	// The new entry fits the cost bound on its own and sits at the front,
	// so global eviction never reaches it.
	for t.order.Len() > t.maxEntries || (t.maxCost > 0 && t.cost > t.maxCost) {
		t.remove(t.order.Back())
	}
	t.enforceShare(oc, el)
	return v, true
}

// enforceShare trims oc back under its budget share, sparing keep (the
// entry that triggered the trim): a single entry larger than the share is
// admitted — the global cost bound still applies — because evicting the
// newcomer itself would make oversized inserts silently uncacheable for
// contended tenants only.
func (t *TenantCostCache[V]) enforceShare(oc *ownerCharge, keep *list.Element) {
	if t.maxCost <= 0 || t.share >= 1 || len(t.owners) < 2 {
		return
	}
	// Fractional shares of tiny budgets truncate to 0, which would trim
	// every contended tenant down to a single entry regardless of cost. The
	// share is "a fraction of the budget", never "nothing".
	limit := max(int64(t.share*float64(t.maxCost)), 1)
	for oc.cost > limit && oc.order.Len() > 1 {
		oldest := oc.order.Front().Value.(*list.Element)
		if oldest == keep {
			break
		}
		t.remove(oldest)
	}
}

// remove evicts one entry and refunds its cost to its owner's ledger.
// Callers hold t.mu.
func (t *TenantCostCache[V]) remove(el *list.Element) {
	e := t.order.Remove(el).(*costEntry[V])
	delete(t.entries, e.key)
	t.cost -= e.cost
	t.evictions++
	oc := t.owners[e.owner]
	oc.cost -= e.cost
	oc.order.Remove(e.byOwner)
	if oc.order.Len() == 0 {
		delete(t.owners, e.owner)
	}
}

// Len returns the number of cached entries.
func (t *TenantCostCache[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// Stats is a point-in-time structural snapshot of a TenantCostCache.
type Stats struct {
	Entries int
	Cost    int64 // summed cost of the cached entries
	MaxCost int64
	// Evictions counts entries evicted over the cache's lifetime; Bypassed
	// counts oversized entries refused admission (not evictions).
	Evictions int64
	Bypassed  int64
	Owners    int // distinct tenants currently holding entries
}

// Stats snapshots the cache under one lock acquisition.
func (t *TenantCostCache[V]) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Entries:   t.order.Len(),
		Cost:      t.cost,
		MaxCost:   t.maxCost,
		Evictions: t.evictions,
		Bypassed:  t.bypassed,
		Owners:    len(t.owners),
	}
}

// OwnerCosts snapshots the cost currently charged to each owner.
func (t *TenantCostCache[V]) OwnerCosts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]int64, len(t.owners))
	for owner, oc := range t.owners {
		m[owner] = oc.cost
	}
	return m
}
