package fabric

import (
	"container/list"
	"sync"
)

// LRU is the eviction policy every cache tier shares: the daemon's
// in-memory result cache, its uploaded-trace store and the DiskCache
// index. It maps keys to values, evicting least-recently-used entries
// while it holds more than maxEntries entries or more than maxBytes
// bytes (each entry's size is given to Put). The most recent entry is
// never evicted, so a single entry larger than the byte cap is still
// kept. Get refreshes recency; Contains does not. It is safe for
// concurrent use.
type LRU[V any] struct {
	maxEntries int
	maxBytes   int64
	onEvict    func(key string, v V)

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	bytes   int64
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

// NewLRU returns an empty LRU. A cap <= 0 does not bind. onEvict, when
// non-nil, is called for every entry evicted to honour the caps (not for
// Remove), after the LRU's lock is released.
func NewLRU[V any](maxEntries int, maxBytes int64, onEvict func(key string, v V)) *LRU[V] {
	return &LRU[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		onEvict:    onEvict,
		entries:    make(map[string]*list.Element),
		order:      list.New(),
	}
}

// Get returns the value stored under key and marks it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Contains reports whether key is stored, without touching its recency.
func (c *LRU[V]) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put stores v under key as the most recently used entry, then evicts
// from the least-recently-used end until both caps hold again. Putting a
// key that is already stored only refreshes its recency: every tier
// stores immutable content under its address, so the value is the same.
func (c *LRU[V]) Put(key string, v V, size int64) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: v, size: size})
	c.bytes += size
	var evicted []*lruEntry[V]
	for c.order.Len() > 1 && ((c.maxEntries > 0 && c.order.Len() > c.maxEntries) || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		e := c.order.Remove(c.order.Back()).(*lruEntry[V])
		delete(c.entries, e.key)
		c.bytes -= e.size
		evicted = append(evicted, e)
	}
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, e := range evicted {
			c.onEvict(e.key, e.val)
		}
	}
}

// Remove drops key, if stored, without calling onEvict.
func (c *LRU[V]) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.bytes -= el.Value.(*lruEntry[V]).size
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

// Values returns the stored values, most recently used first.
func (c *LRU[V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.entries))
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]).val)
	}
	return out
}

// Len returns the stored entry count.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the summed size of the stored entries.
func (c *LRU[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
