// Package subplan implements the middleware's content-addressed subplan
// cache: memoized intermediate batches keyed on (subtree fingerprint,
// version vector of the stores the subtree touches), plus Flight, the
// keyed single-flight that lets concurrently in-flight plans sharing a hot
// subtree execute it once (and that the server's whole-request tier shares).
//
// This is the middle tier of the serving stack's three caches. The plan
// cache (compiler.PlanCache) memoizes compilation; the result cache
// (server) memoizes whole responses for byte-identical requests; the
// subplan cache sits between them and is what makes *near*-identical
// traffic cheap — the same scan/filter/join prefix under a different
// projection, limit, or window replays the memoized intermediate instead
// of re-executing the subtree. Keys are position independent
// (ir.Graph.SubtreeFingerprints), so the sharing works across distinct
// plans, and version-vectored, so invalidation is as surgical as the
// result cache's: a write to a store the subtree never reads changes
// nothing. Both memo tiers sit on the same substrate: the result cache and
// this one are each an lru.TenantCostCache (tenant-charged, byte-bounded,
// locked once per operation) with a Flight in front.
package subplan

import (
	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/lru"
	"polystorepp/internal/migrate"
)

// NodeCost is the execution-report replay data for one node of a memoized
// subtree, indexed by the node's rank in the subtree's sorted closure. A
// cache hit skips the subtree's real execution but still costs every node
// from this record on the simulated clock, so warm Reports are
// byte-identical to cold ones (modulo host wall times, which Reports
// already exclude from equivalence).
type NodeCost struct {
	Info      adapter.ExecInfo
	IsMigrate bool
	BD        migrate.Breakdown
	// Rows is the node's output cardinality (migrations report it from the
	// materialized batch, which a replayed interior node no longer has).
	Rows     int
	BytesIn  int64
	BytesOut int64
}

// Entry is one memoized subtree execution: the root's materialized output
// plus per-node costing replay data. Entries are immutable once published
// and may be served to many executions concurrently; consumers must not
// mutate Output.
type Entry struct {
	Output *cast.Batch
	Costs  []NodeCost // closure rank -> replay data
	Bytes  int64      // Output payload size (lru cost accounting)
}

// Cost is what the entry is charged in the cache: its payload plus
// bookkeeping overhead.
func (e *Entry) Cost() int64 { return e.Bytes + entryOverheadBytes }

// entryOverheadBytes approximates the per-entry bookkeeping cost (map and
// list cells, cost slice) charged on top of the payload.
const entryOverheadBytes = 512

// maxEntriesFor scales the entry bound with the byte budget so tiny test
// budgets still admit a few entries while production budgets aren't capped
// by entry count before bytes.
func maxEntriesFor(maxBytes int64) int {
	n := int(maxBytes / (4 << 10))
	if n < 16 {
		n = 16
	}
	if n > 65536 {
		n = 65536
	}
	return n
}

// NewCache returns the subplan tier's cache: the shared tenant-charged
// substrate (lru.TenantCostCache) bounded to maxBytes of memoized
// intermediates plus per-entry overhead. Entries are charged to the tenant
// whose execution published them (Put with Entry.Cost): while more than one
// tenant holds entries, each tenant's bytes are capped at share of the
// budget (share <= 0 selects the default, >= 1 disables per-tenant
// capping), so one tenant's working set cannot evict everyone else's
// memoized intermediates.
func NewCache(maxBytes int64, share float64) *lru.TenantCostCache[*Entry] {
	return lru.NewTenantCost[*Entry](maxEntriesFor(maxBytes), maxBytes, share)
}
