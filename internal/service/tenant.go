package service

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/ranking"
)

// catalog is one immutable ensemble of ranking lists over a shared domain.
// A catalog value is never mutated after it is stored in a tenant: submits
// and appends build a fresh catalog and swap the pointer, so queries that
// snapshotted the old value keep computing on consistent data with no locks
// held.
type catalog struct {
	dom      *ranking.Domain
	rankings []*ranking.PartialRanking
}

// tenant is one isolated namespace of catalogs. Its share of the shared
// distance cache's traffic lives in rankserve_cache_{hits,misses}_total
// under its name (see cachedDistance).
type tenant struct {
	name string

	mu       sync.RWMutex
	catalogs map[string]*catalog
}

func newTenant(name string) *tenant {
	return &tenant{name: name, catalogs: make(map[string]*catalog)}
}

// getCatalog snapshots one catalog by name.
func (t *tenant) getCatalog(name string) (*catalog, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.catalogs[name]
	return c, ok
}

// putCatalog stores (or replaces) a catalog, enforcing the per-tenant
// catalog cap on creation. Reports whether the cap admitted it.
func (t *tenant) putCatalog(name string, c *catalog, maxCatalogs int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.catalogs[name]; !exists && len(t.catalogs) >= maxCatalogs {
		return false
	}
	t.catalogs[name] = c
	return true
}

// appendRankings appends lists parsed over dom to the named catalog and
// returns the merged catalog. The read, the remap onto the catalog's domain
// by element name, the ranking-limit check, the merge and the store all
// happen under the write lock, so concurrent appends and replaces
// serialize: no acknowledged list is lost, and no replace is reverted.
func (t *tenant) appendRankings(name string, dom *ranking.Domain, rankings []*ranking.PartialRanking, limits guard.Limits) (*catalog, *apiError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.catalogs[name]
	if !ok {
		return nil, fail(http.StatusNotFound, "unknown catalog %q", name)
	}
	remapped, err := remapToDomain(old.dom, dom, rankings)
	if err != nil {
		return nil, fail(http.StatusConflict, "%v", err)
	}
	if !limits.RankingsOK(len(old.rankings) + len(remapped)) {
		return nil, failDefect(http.StatusRequestEntityTooLarge, "catalog would exceed ranking limit %d", limits.MaxRankings)
	}
	merged := make([]*ranking.PartialRanking, 0, len(old.rankings)+len(remapped))
	merged = append(merged, old.rankings...)
	c := &catalog{dom: old.dom, rankings: append(merged, remapped...)}
	t.catalogs[name] = c
	return c, nil
}

// deleteCatalog removes a catalog; reports whether it existed.
func (t *tenant) deleteCatalog(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.catalogs[name]; !ok {
		return false
	}
	delete(t.catalogs, name)
	return true
}

// catalogNames returns the tenant's catalog names, sorted.
func (t *tenant) catalogNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.catalogs))
	for n := range t.catalogs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// rankingCount sums the tenant's stored lists across catalogs.
func (t *tenant) rankingCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := 0
	for _, c := range t.catalogs {
		total += len(c.rankings)
	}
	return total
}

// cachedDistance wraps a workspace distance with the shared cache, like
// metrics.Cached, but attributes each probe to the request: the request's
// cache span and access-log line report its hits and misses, and the rim
// adds them to the tenant's rankserve_cache_{hits,misses}_total series.
// This is the only path service queries use to probe the cache, which is
// what makes the per-tenant series sum exactly to the shared totals.
func cachedDistance(c *cache.Cache, id uint32, d metrics.DistanceWS, meta *requestMeta) metrics.DistanceWS {
	return func(ws *metrics.Workspace, a, b *ranking.PartialRanking) (float64, error) {
		k := cache.PairKey(id, a.Fingerprint(), b.Fingerprint())
		if v, ok := c.Get(k); ok {
			meta.cacheHits.Add(1)
			return v, nil
		}
		meta.cacheMisses.Add(1)
		v, err := d(ws, a, b)
		if err != nil {
			return 0, err
		}
		c.Put(k, v)
		return v, nil
	}
}

// metricByName resolves the wire name of a distance metric to its cache id
// and workspace kernel. The four names are the paper's pairwise metrics.
func metricByName(name string) (uint32, metrics.DistanceWS, error) {
	switch name {
	case "", "kprof":
		return metrics.CacheIDKProf, metrics.KProfWS, nil
	case "fprof":
		return metrics.CacheIDFProf, metrics.FProfWS, nil
	case "khaus":
		return metrics.CacheIDKHaus, metrics.KHausWS, nil
	case "fhaus":
		return metrics.CacheIDFHaus, metrics.FHausWS, nil
	default:
		return 0, nil, fmt.Errorf("unknown metric %q (want kprof, fprof, khaus, or fhaus)", name)
	}
}

// remapToDomain rebuilds rankings parsed against newDom as rankings over
// oldDom, matching elements by name. Appending to a catalog parses the new
// body with a fresh domain (the text codec interns names in encounter
// order), so element IDs need not line up even when the name sets match;
// remapping by name makes append order-insensitive. Every name must already
// exist in oldDom and the domains must be the same size, since every stored
// ranking covers the whole domain.
func remapToDomain(oldDom, newDom *ranking.Domain, rankings []*ranking.PartialRanking) ([]*ranking.PartialRanking, error) {
	if newDom.Size() != oldDom.Size() {
		return nil, fmt.Errorf("appended lists cover %d elements, catalog has %d", newDom.Size(), oldDom.Size())
	}
	mapID := make([]int, newDom.Size())
	for id := 0; id < newDom.Size(); id++ {
		name := newDom.Name(id)
		old, ok := oldDom.ID(name)
		if !ok {
			return nil, fmt.Errorf("appended lists rank unknown element %q", name)
		}
		mapID[id] = old
	}
	out := make([]*ranking.PartialRanking, len(rankings))
	for i, pr := range rankings {
		buckets := make([][]int, pr.NumBuckets())
		for b := 0; b < pr.NumBuckets(); b++ {
			src := pr.Bucket(b)
			dst := make([]int, len(src))
			for j, e := range src {
				dst[j] = mapID[e]
			}
			buckets[b] = dst
		}
		remapped, err := ranking.FromBuckets(pr.N(), buckets)
		if err != nil {
			return nil, fmt.Errorf("remapping appended list %d: %w", i, err)
		}
		out[i] = remapped
	}
	return out, nil
}
