package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// Adversarial voter injection: where Inject corrupts the ACCESS layer (a
// list stalls, fails transiently, or dies), InjectVoters corrupts the INPUT layer —
// it plants hostile rankings inside an otherwise honest ensemble, the way a
// service taking rankings from millions of untrusted users actually gets
// attacked. The injector is deterministic under its seed exactly like the
// fault Plan: the same seed over the same clean ensemble yields the same
// adversary rankings at the same positions, so robustness experiments and CI
// replay bit-for-bit.

// Gated telemetry instrument of the voter injector.
var tInjVoters = telemetry.GetCounter("faults.injected.voters")

// AdversaryKind selects the attack an injected voter mounts.
type AdversaryKind int

const (
	// ReversalSpam voters all submit the exact reverse of the clean
	// ensemble's mean-position (Borda) consensus — coordinated spam that
	// drags every score toward the anti-consensus.
	ReversalSpam AdversaryKind = iota
	// CollusionClique voters collude to promote a slate of target elements:
	// every clique member ranks the slate first (in slate order) and the
	// remaining elements in one shared random order, so the clique agrees
	// with itself perfectly and with nobody else.
	CollusionClique
	// NoiseVoters submit independent uniformly random full rankings —
	// uncoordinated garbage rather than an attack.
	NoiseVoters
)

// String returns the kind's wire/CLI name.
func (k AdversaryKind) String() string {
	switch k {
	case ReversalSpam:
		return "reversal"
	case CollusionClique:
		return "clique"
	case NoiseVoters:
		return "noise"
	default:
		return fmt.Sprintf("AdversaryKind(%d)", int(k))
	}
}

// AdversaryPlan configures one deterministic voter injection.
type AdversaryPlan struct {
	// Seed drives the injector's private random stream (adversary content
	// and placement).
	Seed int64
	// Kind selects the attack.
	Kind AdversaryKind
	// Count is the number of adversarial voters to inject. When 0, Count is
	// derived from Fraction.
	Count int
	// Fraction, used when Count == 0, injects ceil(Fraction * m) adversaries
	// for a clean ensemble of m voters.
	Fraction float64
	// Targets is the slate a CollusionClique promotes, best-first. Required
	// for CollusionClique; ignored by the other kinds.
	Targets []int
}

// AdversaryReport records what one injection did.
type AdversaryReport struct {
	Kind AdversaryKind `json:"kind"`
	Seed int64         `json:"seed"`
	// Injected holds the indices of the adversarial voters in the RETURNED
	// ensemble, ascending. Adversaries are interleaved at seed-determined
	// positions, never appended as a suffix, so trimming cannot succeed by
	// position alone.
	Injected []int `json:"injected"`
}

// InjectVoters returns a new ensemble of len(clean)+count voters: the clean
// voters in their original relative order with count adversarial voters of
// the planned kind spliced in at seed-determined positions. The clean
// rankings are shared, not copied. Deterministic: the same plan over the
// same clean ensemble returns identical rankings and identical placement.
func InjectVoters(clean []*ranking.PartialRanking, plan AdversaryPlan) ([]*ranking.PartialRanking, *AdversaryReport, error) {
	if len(clean) == 0 {
		return nil, nil, fmt.Errorf("faults: no clean voters to inject into")
	}
	if err := ranking.CheckSameDomain(clean...); err != nil {
		return nil, nil, err
	}
	n := clean[0].N()
	count := plan.Count
	if count == 0 && plan.Fraction > 0 {
		count = int(plan.Fraction * float64(len(clean)))
		if float64(count) < plan.Fraction*float64(len(clean)) {
			count++
		}
	}
	if count < 0 {
		return nil, nil, fmt.Errorf("faults: adversary count %d is negative", count)
	}

	rng := rand.New(rand.NewSource(plan.Seed))
	adversaries := make([]*ranking.PartialRanking, count)
	switch plan.Kind {
	case ReversalSpam:
		rev, err := reversalOfConsensus(clean)
		if err != nil {
			return nil, nil, err
		}
		for i := range adversaries {
			adversaries[i] = rev
		}
	case CollusionClique:
		if len(plan.Targets) == 0 {
			return nil, nil, fmt.Errorf("faults: collusion clique needs a non-empty target slate")
		}
		cliqueRank, err := cliqueRanking(n, plan.Targets, rng)
		if err != nil {
			return nil, nil, err
		}
		for i := range adversaries {
			adversaries[i] = cliqueRank
		}
	case NoiseVoters:
		for i := range adversaries {
			adversaries[i] = ranking.MustFromOrder(rng.Perm(n))
		}
	default:
		return nil, nil, fmt.Errorf("faults: unknown adversary kind %d", int(plan.Kind))
	}

	// Splice the adversaries in at seed-determined positions of the combined
	// ensemble.
	total := len(clean) + count
	positions := rng.Perm(total)[:count]
	sort.Ints(positions)
	isAdv := make([]bool, total)
	for _, p := range positions {
		isAdv[p] = true
	}
	out := make([]*ranking.PartialRanking, total)
	rep := &AdversaryReport{Kind: plan.Kind, Seed: plan.Seed, Injected: positions}
	ci, ai := 0, 0
	for i := 0; i < total; i++ {
		if isAdv[i] {
			out[i] = adversaries[ai]
			ai++
		} else {
			out[i] = clean[ci]
			ci++
		}
	}
	tInjVoters.Add(int64(count))
	return out, rep, nil
}

// reversalOfConsensus returns the exact reverse of the clean ensemble's
// mean-position ordering (Borda consensus; ties broken by element ID before
// reversing). Computed inline so the access layer keeps its one-directional
// import discipline toward the aggregation engines.
func reversalOfConsensus(clean []*ranking.PartialRanking) (*ranking.PartialRanking, error) {
	n := clean[0].N()
	score := make([]int64, n)
	for _, r := range clean {
		for e := 0; e < n; e++ {
			score[e] += r.Pos2(e)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] < score[order[b]] })
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return ranking.FromOrder(order)
}

// cliqueRanking builds the shared clique ranking: the slate first, in slate
// order, then every remaining element in one rng-drawn order.
func cliqueRanking(n int, targets []int, rng *rand.Rand) (*ranking.PartialRanking, error) {
	inSlate := make([]bool, n)
	order := make([]int, 0, n)
	for _, t := range targets {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("faults: clique target %d out of domain [0,%d)", t, n)
		}
		if inSlate[t] {
			return nil, fmt.Errorf("faults: clique target %d listed twice", t)
		}
		inSlate[t] = true
		order = append(order, t)
	}
	rest := make([]int, 0, n-len(targets))
	for e := 0; e < n; e++ {
		if !inSlate[e] {
			rest = append(rest, e)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return ranking.FromOrder(append(order, rest...))
}
