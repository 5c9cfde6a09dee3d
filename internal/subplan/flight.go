package subplan

import (
	"context"
	"sync"
)

// Flight is the serving stack's one keyed single-flight: the first caller
// for a key takes its production lease and becomes the leader; callers
// arriving while it runs become followers holding the same lease. The
// leader publishes its outcome (a value plus an error) when it releases,
// and followers Wait for it — context-aware, so a follower whose deadline
// expires gives up with its own context error while the leader keeps
// running for the others.
//
// Both memo tiers use it. The subplan tier (Flight[struct{}]) ignores the
// outcome: its followers wake, re-probe the cache — a hit if the leader
// published, a fresh leader election if it failed or its entry was bypassed
// — so a leader that dies mid-plan just releases on the execution's exit
// path and followers run the subtree themselves. The server's whole-request
// tier hands the leader's results to its followers through the lease.
type Flight[V any] struct {
	mu     sync.Mutex
	leases map[string]*Lease[V]
}

// Lease is one key's in-flight production and, once released, its leader's
// outcome.
type Lease[V any] struct {
	done chan struct{}
	// Written by the leader before done closes.
	val V
	err error
}

// NewFlight returns an empty coordinator.
func NewFlight[V any]() *Flight[V] {
	return &Flight[V]{leases: make(map[string]*Lease[V])}
}

// Acquire takes the production lease for key. The first caller becomes the
// leader (leader true) and must Release when its execution finishes —
// whether or not it succeeded, panics included. Later callers get leader
// false and the current leader's lease to Wait on.
func (f *Flight[V]) Acquire(key string) (l *Lease[V], leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l, ok := f.leases[key]; ok {
		return l, false
	}
	l = &Lease[V]{done: make(chan struct{})}
	f.leases[key] = l
	return l, true
}

// Release clears the lease for key, publishes (v, err) as the leader's
// outcome and wakes its followers. Only the leader that acquired the key
// calls this; releasing an unheld key is a no-op.
func (f *Flight[V]) Release(key string, v V, err error) {
	f.mu.Lock()
	l, ok := f.leases[key]
	delete(f.leases, key)
	f.mu.Unlock()
	if ok {
		l.val, l.err = v, err
		close(l.done)
	}
}

// Wait blocks until the leader releases, returning its outcome, or until
// ctx ends, returning ctx's error.
func (l *Lease[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-l.done:
		return l.val, l.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}
