// Package lru provides the bounded least-recently-used maps backing the
// serving layer's caches, so eviction and recency logic lives in one place:
// Cache, an entry-bounded map for compiled plans, and TenantCostCache, the
// cost-bounded, tenant-charged memo substrate under both the result cache
// and the subplan cache.
package lru

import "container/list"

// Cache maps string keys to values, evicting the least recently used entry
// past capacity. It is NOT safe for concurrent use: callers guard it with
// their own lock alongside their hit/miss accounting.
type Cache[V any] struct {
	cap     int
	order   *list.List // front = most recently used; values are *entry[V]
	entries map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache bounded to capacity entries. capacity < 1 is treated
// as 1.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the value under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores v under key and returns the value now cached: the incumbent
// when the key is already present — racing fills produce equivalent values
// and keeping one lets repeated hits share it — otherwise v.
func (c *Cache[V]) Put(key string, v V) V {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[V]).val
	}
	c.entries[key] = c.order.PushFront(&entry[V]{key: key, val: v})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
	}
	return v
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return c.order.Len() }
