package server

import (
	"container/list"
	"strconv"
	"sync"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/obs"
)

// PlanCache is an LRU cache of compiled plans keyed on normalized SQL text
// plus the catalog DDL version the plan was compiled against. Because the
// version is part of the key, a DDL commit makes every older entry
// unreachable — a cached plan is never served against a changed catalog —
// and Invalidate sweeps the dead entries out eagerly.
//
// Hit/miss/eviction counters and the live-entry gauge register in the
// engine's obs registry, so the cache's behaviour shows up in /metrics next
// to the query histograms. The counters satisfy hits + misses == lookups.
type PlanCache struct {
	mu sync.Mutex
	// guarded by mu
	lru *list.List
	// guarded by mu
	byKey map[string]*list.Element
	cap   int

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
}

// cacheEntry is one cached plan with its key (kept for eviction).
type cacheEntry struct {
	key  string
	prep *rasql.Prepared
}

// NewPlanCache creates a cache holding at most capacity plans (minimum 1)
// and registers its rasql_plan_cache_* instruments on reg.
func NewPlanCache(capacity int, reg *obs.Registry) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		lru:       list.New(),
		byKey:     make(map[string]*list.Element),
		cap:       capacity,
		hits:      reg.Counter("rasql_plan_cache_hits_total", "Plan-cache lookups served from cache."),
		misses:    reg.Counter("rasql_plan_cache_misses_total", "Plan-cache lookups that had to compile."),
		evictions: reg.Counter("rasql_plan_cache_evictions_total", "Plans evicted by LRU or DDL invalidation."),
		entries:   reg.Gauge("rasql_plan_cache_entries", "Plans currently cached."),
	}
}

// cacheKey joins the normalized SQL and the catalog version. The version
// renders first so Invalidate can match entries by prefix-free comparison on
// the stored Prepared instead of re-parsing keys.
func cacheKey(norm string, version uint64) string {
	return strconv.FormatUint(version, 10) + "\x00" + norm
}

// Get looks up the plan compiled from norm against catalog version,
// counting a hit or a miss. A hit moves the entry to the LRU front.
func (pc *PlanCache) Get(norm string, version uint64) *rasql.Prepared {
	key := cacheKey(norm, version)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.byKey[key]; ok {
		pc.lru.MoveToFront(el)
		pc.hits.Inc()
		return el.Value.(*cacheEntry).prep
	}
	pc.misses.Inc()
	return nil
}

// Put stores a compiled plan under its normalized text and the catalog
// version it was compiled against, evicting the LRU tail beyond capacity.
// Racing Puts for the same key keep the first entry (the plans are
// interchangeable: same normal form, same catalog snapshot).
func (pc *PlanCache) Put(norm string, p *rasql.Prepared) {
	key := cacheKey(norm, p.CatalogVersion())
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.byKey[key]; ok {
		pc.lru.MoveToFront(el)
		return
	}
	pc.byKey[key] = pc.lru.PushFront(&cacheEntry{key: key, prep: p})
	for pc.lru.Len() > pc.cap {
		tail := pc.lru.Back()
		pc.lru.Remove(tail)
		delete(pc.byKey, tail.Value.(*cacheEntry).key)
		pc.evictions.Inc()
	}
	pc.entries.Set(int64(pc.lru.Len()))
}

// Invalidate drops every plan compiled against a catalog version other than
// current. Versioned keys already make stale entries unreachable; the sweep
// frees their memory and keeps the entries gauge honest. Swept entries count
// as evictions.
func (pc *PlanCache) Invalidate(current uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var next *list.Element
	for el := pc.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.prep.CatalogVersion() != current {
			pc.lru.Remove(el)
			delete(pc.byKey, e.key)
			pc.evictions.Inc()
		}
	}
	pc.entries.Set(int64(pc.lru.Len()))
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}
