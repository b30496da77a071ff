package main

import (
	"fmt"
	"io"
	"net/http"

	"github.com/rasql/rasql-go/internal/obs"
)

// classCounts sums what rasqld reported about the requests of one class in
// the counting pass: counts that repeat exactly (iterations, shuffle volume,
// reply size) and its two program clocks, which do not.
type classCounts struct {
	requests                     int
	iterations                   int64
	shuffleBytes, shuffleRecords int64
	simNS, barrierWaitNS         int64
	responseBytes                int
}

// planCacheCounts are the plan cache's counters.
type planCacheCounts struct{ hits, misses, evictions int }

// counted is the result of the counting pass.
type counted struct {
	perClass map[byte]*classCounts
	cache    planCacheCounts // read from the child's /metrics
	model    planCacheCounts // what the request sequence implies
}

// planCacheCapacity is rasqld's default -plan-cache.
const planCacheCapacity = 256

// simulatePlanCache replays a request sequence against a model of the
// server's plan cache, empty at the start: every statement looks its plan up
// (a hit, or a miss followed by an insert that evicts the least recently used
// plan when the cache is full), except that CREATE VIEW, after its miss, is
// not inserted and invalidates every plan.
func simulatePlanCache(reqs []request, capacity int) planCacheCounts {
	var c planCacheCounts
	var lru []string // least recently used first
	find := func(sql string) int {
		for i, s := range lru {
			if s == sql {
				return i
			}
		}
		return -1
	}
	for _, r := range reqs {
		i := find(r.sql)
		switch {
		case i >= 0:
			c.hits++
			lru = append(append(lru[:i:i], lru[i+1:]...), r.sql)
		case r.class == classV:
			c.misses++
			c.evictions += len(lru)
			lru = nil
		default:
			c.misses++
			lru = append(lru, r.sql)
			if len(lru) > capacity {
				lru = lru[1:]
				c.evictions++
			}
		}
	}
	return c
}

// countingRequests is how many requests the counting pass sends: two CREATE
// VIEW cycles of short-mix, 20 statements of the others.
func countingRequests(w workload) int {
	if w.perRound >= mixDDLEvery {
		return 2 * mixDDLEvery
	}
	return 20
}

// countingPass sends client 0's request sequence, one request at a time, to
// a rasqld started for it alone, decodes every reply in full, and then reads
// the plan-cache counters from /metrics. With one client and a fresh process
// every count is determined by the sequence.
func (b *bench) countingPass(w workload, t *tally) (*counted, error) {
	c, err := startChild(b.rasqld, b.tableFlags)
	if err != nil {
		return nil, err
	}
	cl := newClient(c.base)
	defer cl.close()
	res := &counted{perClass: map[byte]*classCounts{}}
	reqs := make([]request, countingRequests(w))
	for i := range reqs {
		reqs[i] = w.at(0, inProcessRound, i)
		r := reqs[i]
		status, reply, _, err := cl.do(queryBody(r.sql, ""))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, reply)
		}
		var resp *fullResponse
		if err == nil {
			resp, _, err = decodeResponse(reply)
		}
		if err != nil {
			t.add(1, 1, fmt.Sprintf("counting pass: %s: %v", r.key, err))
			continue
		}
		t.add(1, 0, "")
		cc := res.perClass[r.class]
		if cc == nil {
			cc = &classCounts{}
			res.perClass[r.class] = cc
		}
		cc.requests++
		cc.iterations += resp.Stats.Iterations
		cc.shuffleBytes += resp.Stats.ShuffleBytes
		cc.shuffleRecords += resp.Stats.ShuffleRecords
		cc.simNS += resp.Stats.SimNanos
		cc.barrierWaitNS += resp.Stats.BarrierWaitNanos
		cc.responseBytes += len(reply)
	}
	var shuffled int64
	for _, cc := range res.perClass {
		shuffled += cc.shuffleBytes
	}
	if (shuffled > 0) != w.shuffles {
		t.add(0, 1, fmt.Sprintf("counting pass: %d bytes shuffled, but shuffles=%v is what the workload is there for", shuffled, w.shuffles))
	}
	res.model = simulatePlanCache(reqs, planCacheCapacity)
	if res.cache, err = scrapePlanCache(c.base); err != nil {
		c.kill()
		return nil, err
	}
	if res.cache != res.model {
		t.add(0, 1, fmt.Sprintf("counting pass: plan cache counted %+v, the request sequence implies %+v", res.cache, res.model))
	}
	if err := c.stop(); err != nil {
		t.add(0, 1, err.Error())
	}
	return res, nil
}

// scrapePlanCache reads the plan-cache counters from rasqld's /metrics.
func scrapePlanCache(base string) (planCacheCounts, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return planCacheCounts{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return planCacheCounts{}, err
	}
	families, err := obs.ParsePrometheus(data)
	if err != nil {
		return planCacheCounts{}, fmt.Errorf("/metrics: %w", err)
	}
	counter := func(name string) int {
		if f := families[name]; f != nil && len(f.Samples) == 1 {
			return int(f.Samples[0].Value)
		}
		err = fmt.Errorf("/metrics: no counter %s", name)
		return 0
	}
	c := planCacheCounts{
		hits:      counter("rasql_plan_cache_hits_total"),
		misses:    counter("rasql_plan_cache_misses_total"),
		evictions: counter("rasql_plan_cache_evictions_total"),
	}
	return c, err
}
