package service

import (
	"fmt"
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

// Budget factors of planLadder, in units of the engine service-time EWMA.
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
	// Reason explains the selection, e.g. "budget 12ms vs engine ewma 31ms".
	Reason string `json:"reason,omitempty"`
}

// ladderPlan is the rung a top-k request runs on, chosen before any engine
// runs.
type ladderPlan struct {
	// active is set when a deadline or an explicit θ puts the request under
	// ladder control; its answer then carries a LadderInfo.
	active bool
	// chosen is the rung the budget selected, which the ladder span reports.
	chosen string
	// stale is set when only a stored answer fits the budget: the request
	// serves one if the store has it, with reason as the ladder's reason.
	stale bool
	// level and theta are the rung whose engine runs otherwise.
	level string
	theta float64
	// reason explains the choice; note says why level departs from chosen.
	reason, note string
}

// planLadder picks a top-k request's rung from what remains of its deadline
// budget and the engine service-time estimate estNs, reading no clock. An
// explicit θ forces the approximate engine outright. With a deadline in
// force on the plain query path (resilient runs own their degraded
// semantics) it picks the cheapest rung that still lands inside the budget;
// a zero estimate (no completed request yet) selects exact, so the ladder
// never degrades on a guess it cannot back with data. A stale rung with no
// stored answer falls back to the approximate engine, the best remaining
// effort inside the budget, and "nra" serves exact where the approximate
// engine would need random access.
func planLadder(req TopKRequest, algo string, hasDeadline bool, remaining time.Duration, estNs, approxTheta float64) ladderPlan {
	p := ladderPlan{level: LadderExact}
	switch {
	case req.Theta != nil:
		p = ladderPlan{active: true, level: LadderApprox, theta: *req.Theta, reason: "explicit theta"}
	case hasDeadline && !req.Resilient:
		est := time.Duration(estNs)
		p.active = true
		p.reason = fmt.Sprintf("budget %s vs engine ewma %s",
			remaining.Round(time.Millisecond), est.Round(time.Millisecond))
		if estNs > 0 && remaining < time.Duration(exactBudgetFactor*float64(est)) {
			p.level, p.theta = LadderApprox, approxTheta
			if remaining < time.Duration(approxBudgetFactor*float64(est)) {
				p.level = LadderStale
			}
		}
	}
	p.chosen = p.level
	if p.level == LadderStale {
		// A trim answer is never stored, so it goes straight to approx.
		p.stale = req.Trim == 0
		p.level, p.theta, p.note = LadderApprox, approxTheta, "; no stale answer, attempting approx"
	}
	if algo == topk.AlgoNRA && p.level == LadderApprox {
		p.level, p.theta = LadderExact, 0
		p.note += "; nra serves exact (approx rung requires random access)"
	}
	return p
}

// ladderLevelCode maps a ladder level to its span-attribute code.
func ladderLevelCode(level string) int64 {
	switch level {
	case LadderExact:
		return 0
	case LadderApprox:
		return 1
	default:
		return 2
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

// invalidate drops every stored answer for a tenant's catalog, or for all
// of its catalogs when catalog is empty. Replaces, appends and deletes call
// it once the catalog has changed, so the stale rung does not serve an
// answer stored before the change.
func (st *staleStore) invalidate(tenant, catalog string) {
	st.mu.Lock()
	for k := range st.m {
		if k.tenant == tenant && (catalog == "" || k.catalog == catalog) {
			delete(st.m, k)
		}
	}
	st.mu.Unlock()
}
