package service

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentMultiTenantAccess hammers one Service from many goroutines
// across several tenants — submits, appends, top-k, aggregates, stats — and
// then cross-checks the books: per-tenant cache attributions must sum exactly
// to the shared cache's totals, and the endpoint tallies must account for
// every request issued. Run under -race this is the service layer's
// data-race certificate.
func TestConcurrentMultiTenantAccess(t *testing.T) {
	svc, ts := testServer(t, Config{})
	const (
		tenants  = 4
		workers  = 8
		rounds   = 6
		catalogs = 2
	)

	// Seed every tenant/catalog up front so queries never race a 404.
	for ti := 0; ti < tenants; ti++ {
		for ci := 0; ci < catalogs; ci++ {
			putCatalog(t, ts, fmt.Sprintf("t%d", ti), fmt.Sprintf("c%d", ci), corpus, "")
		}
	}

	var issued atomic.Int64
	do := func(method, url, body string, wantStatus int) {
		issued.Add(1)
		status, b := doReq(t, method, url, body)
		if status != wantStatus {
			t.Errorf("%s %s = %d, want %d: %s", method, url, status, wantStatus, b)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tn := fmt.Sprintf("t%d", (w+r)%tenants)
				cat := fmt.Sprintf("c%d", r%catalogs)
				base := fmt.Sprintf("%s/v1/tenants/%s/catalogs/%s", ts.URL, tn, cat)
				switch r % 4 {
				case 0: // replace the catalog wholesale
					do(http.MethodPut, base, corpus, http.StatusOK)
				case 1: // top-k query
					do(http.MethodPost, base+"/topk", `{"k": 2}`, http.StatusOK)
				case 2: // aggregation (the only path that probes the cache)
					metric := []string{"kprof", "fprof", "khaus", "fhaus"}[w%4]
					do(http.MethodPost, base+"/aggregate",
						fmt.Sprintf(`{"metric": %q}`, metric), http.StatusOK)
				case 3: // stats snapshot races the counters being bumped
					do(http.MethodGet, ts.URL+"/stats", "", http.StatusOK)
				}
			}
		}(w)
	}
	wg.Wait()

	// Per-tenant cache attribution must sum to the shared cache's totals:
	// cachedDistance is the only service path that probes the cache, and the
	// rim adds exactly the probes it made to the tenant's family series.
	var tenantHits, tenantMisses int64
	for _, hits := range sumBy(svc.mCacheHits, 0) {
		tenantHits += hits
	}
	for _, misses := range sumBy(svc.mCacheMisses, 0) {
		tenantMisses += misses
	}
	cs := svc.Cache().Stats()
	if tenantHits != cs.Hits || tenantMisses != cs.Misses {
		t.Errorf("per-tenant cache stats (hits %d, misses %d) != shared cache totals (hits %d, misses %d)",
			tenantHits, tenantMisses, cs.Hits, cs.Misses)
	}
	if tenantMisses == 0 {
		t.Error("aggregation workload produced no cache traffic")
	}

	// The endpoint tallies must account for every request issued (the
	// seeding PUTs plus the workload), with zero errors.
	var counted, errored int64
	rows, _ := svc.endpointStats()
	for _, es := range rows {
		counted += es.Requests
		errored += es.Errors
	}
	want := issued.Load() + tenants*catalogs
	if counted != want {
		t.Errorf("endpoint tallies count %d requests, want %d", counted, want)
	}
	if errored != 0 {
		t.Errorf("endpoint tallies report %d errors, want 0", errored)
	}
}

// TestConcurrentTenantCapDeterministic races many goroutines creating
// distinct tenants against a cap of 3: exactly 3 creations must win, every
// loser must see the same structured 429, and which-three-won must be the
// only nondeterminism — retrying a loser after the dust settles is still
// deterministically rejected.
func TestConcurrentTenantCapDeterministic(t *testing.T) {
	svc, ts := testServer(t, Config{MaxTenants: 3})
	const contenders = 12

	results := make([]int, contenders)
	var wg sync.WaitGroup
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/tenants/race%d/catalogs/c", ts.URL, i)
			status, _ := doReq(t, http.MethodPut, url, corpus)
			results[i] = status
		}(i)
	}
	wg.Wait()

	ok, rejected := 0, 0
	for i, status := range results {
		switch status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			// A rejected creation is deterministic: retrying now that the
			// race is over must reject again, with the same defect.
			url := fmt.Sprintf("%s/v1/tenants/race%d/catalogs/c", ts.URL, i)
			st2, b := doReq(t, http.MethodPut, url, corpus)
			if st2 != http.StatusTooManyRequests {
				t.Errorf("retry of rejected tenant race%d = %d, want 429", i, st2)
			}
			er := decode[ErrorResponse](t, b)
			if len(er.Defects) != 1 {
				t.Errorf("rejected tenant race%d: defects = %+v", i, er.Defects)
			}
		default:
			t.Errorf("tenant race%d: unexpected status %d", i, status)
		}
	}
	if ok != 3 || rejected != contenders-3 {
		t.Errorf("cap 3 with %d contenders: %d ok, %d rejected", contenders, ok, rejected)
	}
	if got := len(svc.tenantsSnapshot()); got != 3 {
		t.Errorf("tenant count after race = %d, want 3", got)
	}

	// Winners keep full service at the cap.
	for i, status := range results {
		if status == http.StatusOK {
			url := fmt.Sprintf("%s/v1/tenants/race%d/catalogs/c/topk", ts.URL, i)
			st, b := doReq(t, http.MethodPost, url, `{"k": 1}`)
			if st != http.StatusOK {
				t.Errorf("winner race%d topk = %d: %s", i, st, b)
			}
		}
	}
}

// TestConcurrentAppendAndQuery races appends against queries on one catalog:
// queries must always see a consistent snapshot (the immutable catalog value
// is swapped atomically under the tenant lock), never a torn state, and
// every acknowledged append must land.
func TestConcurrentAppendAndQuery(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "hot", corpus, "")
	base := ts.URL + "/v1/tenants/acme/catalogs/hot"

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if w%2 == 0 {
					status, b := doReq(t, http.MethodPost, base+"/rankings", "d | c | b | a\n")
					if status != http.StatusOK {
						t.Errorf("append = %d: %s", status, b)
					}
				} else {
					status, b := doReq(t, http.MethodPost, base+"/topk", `{"k": 2}`)
					if status != http.StatusOK {
						t.Errorf("topk during appends = %d: %s", status, b)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	status, b := doReq(t, http.MethodGet, base, "")
	if status != http.StatusOK {
		t.Fatalf("GET after race = %d: %s", status, b)
	}
	info := decode[CatalogInfo](t, b)
	if info.Rankings != 4+10 {
		t.Errorf("rankings after race = %d, want 14", info.Rankings)
	}
	if info.Elements != 4 {
		t.Errorf("elements after race = %d, want 4", info.Elements)
	}
}

// TestConcurrentAppendsKeepEveryList races 16 one-line appends to the
// four-list corpus, 20 times over: appends serialize under the tenant's
// write lock, so every catalog ends with 20 lists and the acknowledged
// counts are exactly 5 through 20, one each.
func TestConcurrentAppendsKeepEveryList(t *testing.T) {
	_, ts := testServer(t, Config{})
	const appends = 16
	for trial := 0; trial < 20; trial++ {
		base := fmt.Sprintf("%s/v1/tenants/acme/catalogs/hot%d", ts.URL, trial)
		putCatalog(t, ts, "acme", fmt.Sprintf("hot%d", trial), corpus, "")
		acked := make([]int, appends)
		var wg sync.WaitGroup
		for w := 0; w < appends; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				status, b := doReq(t, http.MethodPost, base+"/rankings", "d | c | b | a\n")
				if status != http.StatusOK {
					t.Errorf("append = %d: %s", status, b)
					return
				}
				acked[w] = decode[IngestResponse](t, b).Rankings
			}(w)
		}
		wg.Wait()
		status, b := doReq(t, http.MethodGet, base, "")
		if status != http.StatusOK {
			t.Fatalf("GET after race = %d: %s", status, b)
		}
		if got := decode[CatalogInfo](t, b).Rankings; got != 4+appends {
			t.Errorf("trial %d: %d lists after %d acknowledged appends, want %d", trial, got, appends, 4+appends)
		}
		sort.Ints(acked)
		for i, n := range acked {
			if n != 5+i {
				t.Errorf("trial %d: acknowledged list counts %v, want 5 through %d", trial, acked, 4+appends)
				break
			}
		}
	}
}
