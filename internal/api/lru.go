package api

import "container/list"

// lru is the bookkeeping both caches share: a map into a recency list
// (front = most recently used) with hit/miss counters. It does no
// locking; each cache guards its own lru with its mutex.
type lru[K comparable, V any] struct {
	cap          int
	ll           *list.List // of *lruEntry[K, V]
	items        map[K]*list.Element
	hits, misses uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) lru[K, V] {
	return lru[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// value is el's stored value.
func (c *lru[K, V]) value(el *list.Element) V { return el.Value.(*lruEntry[K, V]).val }

// hit marks el most recently used, counts the hit and returns its value.
func (c *lru[K, V]) hit(el *list.Element) V {
	c.ll.MoveToFront(el)
	c.hits++
	return c.value(el)
}

// put stores key's value as the most recently used, evicting the least
// recently used entry when full. A capacity of 0 or less keeps nothing.
func (c *lru[K, V]) put(key K, v V) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: v})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry[K, V]).key)
	}
}

func (c *lru[K, V]) stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, Size: c.ll.Len(), Capacity: c.cap}
}
