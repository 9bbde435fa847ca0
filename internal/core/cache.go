package core

import (
	"container/list"
	"sync"
)

// DefaultLoopCacheEntries bounds each of a LoopLRU's two caches unless the
// caller sizes it: at the paper's 340-wide vectors (~2.7KB each) a full
// vector cache costs ~11MB, enough to hold every built-in suite many times
// over.
const DefaultLoopCacheEntries = 4096

// Cache is a fixed-capacity LRU keyed by string, safe for concurrent use.
// It backs every bounded cache in the system: the service's rendered
// responses and the fleet's shared tier (as Cache[[]byte]) and both halves
// of LoopLRU. Callers embed whatever makes an entry valid (typically the
// model version) in the key, so a hot-reload needs no flush: entries for the
// old version stop being asked for and age out.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry[V any] struct {
	key string
	val V
}

// NewCache returns an LRU holding at most capacity entries. A capacity of 0
// or less disables caching (every Get misses, Put is a no-op).
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// Put inserts or refreshes a value, evicting the least recently used entry
// when over capacity. The value is stored as-is; callers must not mutate it
// afterwards.
func (c *Cache[V]) Put(key string, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry[V]).key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// LoopLRU is the LoopCache implementation: two bounded LRUs, one for
// loop-pure policies' (VF, IF) decisions and one for code vectors, both
// keyed by PredictLoops under (checkpoint, LoopID). Vectors are stored and
// returned as the same slice, never copied; no policy writes its input.
type LoopLRU struct {
	decisions *Cache[[2]int]
	embeds    *Cache[[]float64]
}

// NewLoopCache returns a LoopLRU holding up to entries decisions and
// entries vectors. A bound of 0 or less disables it.
func NewLoopCache(entries int) *LoopLRU {
	return &LoopLRU{decisions: NewCache[[2]int](entries), embeds: NewCache[[]float64](entries)}
}

func (c *LoopLRU) GetDecision(key string) (vf, ifc int, ok bool) {
	d, ok := c.decisions.Get(key)
	return d[0], d[1], ok
}

func (c *LoopLRU) PutDecision(key string, vf, ifc int) { c.decisions.Put(key, [2]int{vf, ifc}) }

func (c *LoopLRU) GetEmbed(key string) ([]float64, bool) { return c.embeds.Get(key) }

func (c *LoopLRU) PutEmbed(key string, vec []float64) { c.embeds.Put(key, vec) }

// Len returns the number of cached decisions and code vectors.
func (c *LoopLRU) Len() (decisions, embeds int) { return c.decisions.Len(), c.embeds.Len() }
