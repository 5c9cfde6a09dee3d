package server

import (
	"context"
	"errors"

	"polystorepp/internal/core"
	"polystorepp/internal/subplan"
)

// The whole-request memo tier sits on the same substrate as the runtime's
// subplan tier: the result cache is an lru.TenantCostCache of executed
// outcomes keyed on (plan-cache key, version vector of the engines/tables
// the plan touches), and identical in-flight queries share one execution
// through a subplan.Flight under the same key — so a follower never shares
// a result computed over different data.
//
// Entries are sound to share across requests because Results and Reports
// are never mutated after Execute returns (response encoding only reads
// them). Invalidation is by key rotation: a mutation of any *touched*
// engine or table rotates the vector, so stale entries stop being
// addressable and age out of the LRU — while writes to untouched stores
// leave keys (and so cached results) intact. Admission is cost-aware (a
// result larger than the whole byte budget bypasses the cache instead of
// flushing it) and resident bytes are charged to the tenant whose execution
// filled each entry.

// resultEntry is one cached executed outcome.
type resultEntry struct {
	res *core.Results
	rep *core.Report
}

// entryOverheadBytes is charged per cached entry on top of the result
// payload, covering the Results/Report structs, map headers, and key.
const entryOverheadBytes = 512

// resultCost is what caching res charges its tenant: the sink payloads plus
// entry overhead.
func resultCost(res *core.Results) int64 {
	n := int64(entryOverheadBytes)
	for _, s := range res.Sinks {
		if b := res.Values[s].Batch; b != nil {
			n += b.ByteSize()
		}
	}
	return n
}

// errFlightPanic is what followers observe when the leader's fn panicked
// before producing an outcome (the leader's own goroutine unwinds with the
// panic; net/http recovers it).
var errFlightPanic = errors.New("server: single-flight leader panicked")

// shareExecution runs fn under key, deduplicating concurrent callers: the
// first caller leads and executes; followers arriving while it runs wait
// for the leader's outcome instead of holding a worker slot, and come back
// with shared set. A follower whose ctx expires returns its own context
// error (shared) while the leader keeps running for the others.
func shareExecution(ctx context.Context, f *subplan.Flight[queryOutcome], key string, fn func() (queryOutcome, error)) (out queryOutcome, err error) {
	lease, leader := f.Acquire(key)
	if !leader {
		out, err = lease.Wait(ctx)
		out.shared = true
		return out, err
	}
	// The release must survive a panicking fn (net/http recovers handler
	// panics): a leaked lease would wedge every future request for this key.
	// Pre-set the error so followers then observe a failure, not a nil
	// outcome.
	err = errFlightPanic
	defer func() { f.Release(key, out, err) }()
	return fn()
}
