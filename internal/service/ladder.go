package service

import (
	"sync"
	"time"

	"repro/internal/topk"
)

// The topk degradation ladder: under deadline pressure the service walks
// down the exact engine → θ-approximate TA → cached stale answer, trading
// answer quality for the certainty of answering inside the budget. Each
// level is strictly cheaper than the one above:
//
//   - exact: the requested engine, full answer.
//   - approx: TA with the configured θ — the FLN (1+θ) early-stop variant,
//     whose certificate ships in the response. The run is priced and
//     counted as TA whatever engine was requested.
//   - stale: the last successful answer for the same (tenant, catalog,
//     algo, k), age-stamped, computed work zero.
//
// Level selection compares the remaining deadline budget against the
// admitted-work EWMA of engine service time: exact needs a comfortable
// 2× margin, approx runs down to half an EWMA, below that only a cached
// answer can land in time. Requests without a deadline always run exact
// (unless they ask for θ explicitly), so the ladder is invisible until the
// operator or client opts into budgets.
const (
	LadderExact  = "exact"
	LadderApprox = "approx"
	LadderStale  = "stale"
)

// Budget factors of chooseLevel, in units of the engine service-time EWMA.
const (
	exactBudgetFactor  = 2.0
	approxBudgetFactor = 0.5
)

// LadderInfo annotates a topk response served under ladder control.
type LadderInfo struct {
	// Level is the rung that produced the answer: exact, approx, or stale.
	Level string `json:"level"`
	// Theta is the approximation slack used (approx level only).
	Theta float64 `json:"theta,omitempty"`
	// Certificate is the FLN (1+θ) early-stop certificate (approx level).
	Certificate *topk.ApproxCertificate `json:"certificate,omitempty"`
	// AgeMs is the served answer's age (stale level only).
	AgeMs int64 `json:"age_ms,omitempty"`
	// Reason explains the selection, e.g. "budget 12ms < 2.0x ewma 31ms".
	Reason string `json:"reason,omitempty"`
}

// chooseLevel picks the ladder rung for a request with `remaining` budget
// given the engine service-time estimate. A zero estimate (no completed
// request yet) or no deadline selects exact: the ladder never degrades on a
// guess it cannot back with data.
func chooseLevel(remaining time.Duration, estNs float64, hasDeadline bool) string {
	if !hasDeadline || estNs <= 0 {
		return LadderExact
	}
	est := time.Duration(estNs)
	switch {
	case remaining >= time.Duration(exactBudgetFactor*float64(est)):
		return LadderExact
	case remaining >= time.Duration(approxBudgetFactor*float64(est)):
		return LadderApprox
	default:
		return LadderStale
	}
}

// staleKey identifies one cacheable topk answer by the request that asked
// for it. Only exact answers are stored. The effective cost ratio is part of
// the key because a CA answer's access summary depends on how often random
// access was scheduled.
type staleKey struct {
	tenant, catalog, algo string
	k                     int
	ratio                 int
}

// staleEntry is one stored answer with its birth time.
type staleEntry struct {
	resp   TopKResponse
	stored time.Time
}

// staleStore is a TTL-bounded map of last-known-good topk answers, the
// ladder's bottom rung. Capacity-bounded with arbitrary eviction: the store
// is a safety net, not a cache with a hit-rate SLO.
type staleStore struct {
	mu  sync.Mutex
	m   map[staleKey]staleEntry
	ttl time.Duration
	cap int
}

func newStaleStore(ttl time.Duration, capacity int) *staleStore {
	return &staleStore{m: make(map[staleKey]staleEntry), ttl: ttl, cap: capacity}
}

// put stores a fresh successful answer.
func (st *staleStore) put(k staleKey, resp TopKResponse) {
	st.mu.Lock()
	if _, exists := st.m[k]; !exists && len(st.m) >= st.cap {
		for victim := range st.m { // arbitrary eviction
			delete(st.m, victim)
			break
		}
	}
	st.m[k] = staleEntry{resp: resp, stored: time.Now()}
	st.mu.Unlock()
}

// get returns a stored answer younger than the TTL and its age.
func (st *staleStore) get(k staleKey) (TopKResponse, time.Duration, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[k]
	if !ok {
		return TopKResponse{}, 0, false
	}
	age := time.Since(e.stored)
	if age > st.ttl {
		delete(st.m, k)
		return TopKResponse{}, 0, false
	}
	return e.resp, age, true
}

// invalidate drops every stored answer for a tenant's catalog; called when
// the catalog's contents change so a stale answer is never staler than one
// TTL behind a *deleted or replaced* catalog. (Answers may still trail an
// appended-to catalog within the TTL; that is the documented contract.)
func (st *staleStore) invalidate(tenant, catalog string) {
	st.mu.Lock()
	for k := range st.m {
		if k.tenant == tenant && (catalog == "" || k.catalog == catalog) {
			delete(st.m, k)
		}
	}
	st.mu.Unlock()
}
