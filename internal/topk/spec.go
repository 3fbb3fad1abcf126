package topk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// Engine names accepted by Spec.Algo.
const (
	AlgoMedRank = "medrank"
	AlgoTA      = "ta"
	AlgoNRA     = "nra"
	AlgoCA      = "ca"
)

// ErrScanEnded reports that every surviving list's sorted scan ended before
// the run certified its answer. Over complete lists this cannot happen: once
// every scan has ended, every position is known and the answer certifies. So
// it means a source ended its scan early, and the run has no sound answer.
var ErrScanEnded = errors.New("topk: every surviving sorted scan ended before the answer was certified")

// DefaultCostRatio is the random:sequential access cost ratio cR/cS assumed
// for a TA or CA run that sets none: random access an order of magnitude
// more expensive than the next entry of an open scan, the classic
// middleware regime.
const DefaultCostRatio = 10

// MaxCostRatio is the largest cR/cS weight a run accepts. It keeps the
// middleware cost sequential + ratio·random far from int overflow: under the
// default guard limits a run makes at most 2^40 random accesses, so the cost
// stays below 2^61.
const MaxCostRatio = 1 << 20

// Spec names one top-k run: the engine and its parameters.
type Spec struct {
	// Algo selects the engine: "" or AlgoMedRank, AlgoTA, AlgoNRA, AlgoCA.
	Algo string
	// K is the number of winners.
	K int
	// Policy is MEDRANK's probe schedule; the other engines ignore it.
	Policy Policy
	// CostRatio is the random:sequential access cost ratio cR/cS at which
	// CA schedules its random-access resolutions; 0 is the NRA regime. The
	// other engines ignore it. Run rejects values outside [0, MaxCostRatio].
	CostRatio int
	// Theta is TA's (1+θ) early-stop slack; 0 runs exact TA. The other
	// engines ignore it.
	Theta float64
}

// EffectiveCostRatio resolves a requested cR/cS weight for an engine: a
// positive ratio wins; otherwise the engines that random-access (TA, CA) run
// and are priced at DefaultCostRatio, and MEDRANK and NRA, which never do,
// at 0.
func EffectiveCostRatio(algo string, ratio int) int {
	if ratio > 0 {
		return ratio
	}
	if algo == AlgoTA || algo == AlgoCA {
		return DefaultCostRatio
	}
	return 0
}

// CheckAlgo reports an error unless name selects an engine.
func CheckAlgo(name string) error {
	switch name {
	case "", AlgoMedRank, AlgoTA, AlgoNRA, AlgoCA:
		return nil
	}
	return fmt.Errorf("unknown algo %q (want medrank, ta, nra, or ca)", name)
}

// driver is one engine's run state over the sources: drive reads until the
// answer is certified (or every surviving list is exhausted), answer reports
// the winners, their medians and the engine's annotations.
type driver interface {
	drive(ctx context.Context) error
	answer() *Result
}

// runCounters are the gated per-engine telemetry counters; random is nil for
// the engines that never random-access.
var runCounters = map[string]struct{ runs, probes, random *telemetry.Counter }{
	AlgoMedRank: {tMedRankRuns, tMedRankProbes, nil},
	AlgoTA:      {tTARuns, tTAProbes, tTARandom},
	AlgoNRA:     {tNRARuns, tNRAProbes, nil},
	AlgoCA:      {tCARuns, tCAProbes, tCARandom},
}

// Run executes spec over the sources and is the only engine dispatch: every
// engine is written once against faults.Source, and in-memory rankings reach
// it through RunRankings.
//
// Sources may fail. Transient failures should be absorbed below the engine
// (faults.WithRetry); any other error reaching an engine kills that list for
// good, the run continues over the survivors, and the Result carries a
// Degraded annotation: the answer is then the exact aggregation of the
// surviving lists. Cancellation or deadline expiry of ctx aborts the run with
// ctx.Err(), as does the death of every list.
//
// acc must be the accountant the sources charge to, so Stats and the Degraded
// waste accounting see every access; nil allocates a fresh one (then the
// sources' accesses are invisible to Stats).
func Run(ctx context.Context, spec Spec, sources []faults.Source, acc *telemetry.AccessAccountant) (*Result, error) {
	m := len(sources)
	if m == 0 {
		return nil, fmt.Errorf("topk: no input sources")
	}
	n := sources[0].N()
	for i, s := range sources {
		if s.N() != n {
			return nil, fmt.Errorf("topk: source %d has domain size %d, want %d: %w", i, s.N(), n, ranking.ErrDomainMismatch)
		}
	}
	if spec.K < 0 || spec.K > n {
		return nil, fmt.Errorf("topk: k=%d out of range [0,%d]", spec.K, n)
	}
	if spec.CostRatio < 0 || spec.CostRatio > MaxCostRatio {
		return nil, fmt.Errorf("topk: cost ratio %d out of range [0,%d]", spec.CostRatio, MaxCostRatio)
	}
	if spec.Theta < 0 || math.IsNaN(spec.Theta) || math.IsInf(spec.Theta, 0) {
		return nil, fmt.Errorf("topk: theta=%v out of range [0, +inf)", spec.Theta)
	}
	if acc == nil {
		acc = telemetry.NewAccessAccountant(m)
	}
	ws := workspaces.Get().(*workspace)
	defer ws.put()
	return ws.run(ctx, spec, sources, acc)
}

// RunRankings runs spec over in-memory rankings and is their one entry. It
// owns the run's accountant: every list source charges it, and wrap, when
// non-nil, is handed it with each list's source, so a retry layer built
// there reports its failures and retries in the Result's Stats.
func RunRankings(ctx context.Context, spec Spec, rankings []*ranking.PartialRanking, wrap faults.Wrapper) (*Result, error) {
	acc := telemetry.NewAccessAccountant(len(rankings))
	return Run(ctx, spec, listSources(rankings, acc, wrap), acc)
}

// workspace is the run state of the engine drivers, kept between runs: the
// per-element arrays, the row slabs, the per-list logs and bitmaps. Run takes
// one from a pool and puts it back once the Result holds copies of
// everything it reports, so a warm run allocates its answer, not its state.
// Each run (and each rebuild after a list death) resets the state it uses;
// nothing carries over from one run to the next but storage.
type workspace struct {
	medrank medrankDriver
	ta      taDriver
	ca      caDriver
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// put drops the run's sources and accountant, so an idle workspace keeps no
// caller's catalog reachable, and returns it to the pool.
func (ws *workspace) put() {
	ws.medrank.lists.release()
	ws.ta.lists.release()
	ws.ca.lists.release()
	workspaces.Put(ws)
}

// run is Run on a validated spec over the workspace's state.
func (ws *workspace) run(ctx context.Context, spec Spec, sources []faults.Source, acc *telemetry.AccessAccountant) (*Result, error) {
	n := sources[0].N()
	name := spec.Algo
	var d driver
	switch name {
	case "", AlgoMedRank:
		name = AlgoMedRank
		if err := ws.medrank.reset(sources, acc, n, spec.K, spec.Policy); err != nil {
			return nil, err
		}
		d = &ws.medrank
	case AlgoTA:
		ws.ta.reset(sources, acc, n, spec.K, spec.Theta)
		d = &ws.ta
	case AlgoNRA:
		ws.ca.reset(sources, acc, n, spec.K, 0)
		d = &ws.ca
	case AlgoCA:
		ws.ca.reset(sources, acc, n, spec.K, spec.CostRatio)
		d = &ws.ca
	default:
		return nil, fmt.Errorf("topk: %w", CheckAlgo(name))
	}

	// With telemetry enabled the whole run carries the pprof label
	// "kernel"=<engine>, so CPU profiles attribute its samples (under the
	// caller's own labels), and the run is timed as a trace span.
	var derr error
	sctx, sp := telemetry.Start(ctx, "topk."+name)
	if name == AlgoTA && spec.Theta > 0 {
		sp.SetAttr("theta_milli", int64(spec.Theta*1000))
	}
	telemetry.Do(sctx, "kernel", name, func(ctx context.Context) {
		derr = d.drive(ctx)
	})
	sp.End()
	if derr != nil {
		return nil, derr
	}

	res := d.answer()
	top, err := ranking.TopKList(n, spec.K, res.Winners)
	if err != nil {
		return nil, err
	}
	res.TopK = top
	res.Stats = statsFromReport(acc.Report())
	c := runCounters[name]
	c.runs.Inc()
	c.probes.Add(int64(res.Stats.Total))
	if c.random != nil {
		c.random.Add(int64(res.Stats.Random))
	}
	return res, nil
}

// lists is the survivor bookkeeping every driver shares: which input lists
// are still alive, in which order, and which died.
type lists struct {
	sources  []faults.Source
	acc      *telemetry.AccessAccountant
	alive    []bool // per original list
	aliveIdx []int  // survivor slot -> original list index
	lost     []int  // original indices of the dead lists, in death order
}

// reset starts the bookkeeping over sources with every list alive, keeping
// its storage.
func (l *lists) reset(sources []faults.Source, acc *telemetry.AccessAccountant) {
	l.sources, l.acc = sources, acc
	l.alive = resize(l.alive, len(sources))
	l.aliveIdx = resize(l.aliveIdx, len(sources))
	for i := range sources {
		l.alive[i] = true
		l.aliveIdx[i] = i
	}
	l.lost = l.lost[:0]
}

// release drops the references to the run's sources and accountant.
func (l *lists) release() {
	l.sources, l.acc = nil, nil
}

// fail classifies an access error on list orig: a context error aborts the
// run; any other error kills the list for good (transients are expected to
// be absorbed below the engine by faults.WithRetry). It returns the error
// that must stop the run — the context's, or the death of the last list —
// and nil when the run continues over the survivors.
func (l *lists) fail(orig int, err error) error {
	if faults.IsContextErr(err) {
		return err
	}
	l.alive[orig] = false
	l.lost = append(l.lost, orig)
	tListDeaths.Inc()
	keep := l.aliveIdx[:0]
	for _, i := range l.aliveIdx {
		if l.alive[i] {
			keep = append(keep, i)
		}
	}
	l.aliveIdx = keep
	if len(keep) == 0 {
		return fmt.Errorf("topk: all %d input lists died mid-query (last: %w)", len(l.sources), err)
	}
	return nil
}

// degraded builds the Degraded annotation of a run that lost lists. obs[i][l]
// is winner i's doubled position in original list l when the run observed it
// (positions observed before a death are exact fault-free positions), and
// math.MaxInt64 when it did not.
func (l *lists) degraded(obs [][]int64) *Degraded {
	rep := l.acc.Report()
	d := &Degraded{
		Lost:             append([]int(nil), l.lost...),
		Survivors:        len(l.aliveIdx),
		Retried:          int(rep.Retried),
		MedianIntervals2: make([][2]int64, len(obs)),
	}
	sort.Ints(d.Lost)
	for _, li := range l.lost {
		if li < len(rep.PerList) {
			d.WastedSequential += int(rep.PerList[li])
		}
		if li < len(rep.RandomPerList) {
			d.WastedRandom += int(rep.RandomPerList[li])
		}
	}
	m := len(l.sources)
	j := (m + 1) / 2
	for i, row := range obs {
		known := make([]int64, 0, m)
		bounded := make([]int64, 0, m)
		unknown := 0
		for orig, p := range row {
			switch {
			case p != math.MaxInt64:
				known = append(known, p)
				bounded = append(bounded, p)
			case l.alive[orig]:
				// An unseen position of a survivor is at least its frontier.
				bounded = append(bounded, l.sources[orig].Peek2())
			default:
				unknown++
			}
		}
		lo := int64(0)
		if j-unknown >= 1 {
			lo = kthSmallest(bounded, j-unknown)
		}
		hi := int64(math.MaxInt64)
		if len(known) >= j {
			hi = kthSmallest(known, j)
		}
		d.MedianIntervals2[i] = [2]int64{lo, hi}
	}
	return d
}

// logPositions collects each winner's observed positions from per-list entry
// logs, in the form lists.degraded takes.
func logPositions(winners []int, m int, logs ...[][]Entry) [][]int64 {
	winIdx := make(map[int]int, len(winners))
	obs := make([][]int64, len(winners))
	for i, w := range winners {
		winIdx[w] = i
		obs[i] = make([]int64, m)
		for l := range obs[i] {
			obs[i][l] = math.MaxInt64
		}
	}
	for _, log := range logs {
		for orig, entries := range log {
			for _, e := range entries {
				if i, ok := winIdx[e.Elem]; ok {
					obs[i][orig] = e.Pos2
				}
			}
		}
	}
	return obs
}

// The entry points below are Run under a fixed Spec — the *Context forms over
// in-memory rankings, the *Over forms over caller-built sources — kept for
// the benchmark harness (bench/engines.go). New callers build a Spec and call
// RunRankings, or Run over sources of their own.

// MedRankContext runs MEDRANK over in-memory rankings under policy.
func MedRankContext(ctx context.Context, rankings []*ranking.PartialRanking, k int, policy Policy) (*Result, error) {
	return RunRankings(ctx, Spec{Algo: AlgoMedRank, K: k, Policy: policy}, rankings, nil)
}

// MedRankOver runs MEDRANK over sources under policy.
func MedRankOver(ctx context.Context, sources []faults.Source, k int, policy Policy, acc *telemetry.AccessAccountant) (*Result, error) {
	return Run(ctx, Spec{Algo: AlgoMedRank, K: k, Policy: policy}, sources, acc)
}

// ThresholdTopKContext runs exact TA over in-memory rankings.
func ThresholdTopKContext(ctx context.Context, rankings []*ranking.PartialRanking, k int) (*Result, error) {
	return RunRankings(ctx, Spec{Algo: AlgoTA, K: k}, rankings, nil)
}

// ThresholdTopKOver runs exact TA over sources.
func ThresholdTopKOver(ctx context.Context, sources []faults.Source, k int, acc *telemetry.AccessAccountant) (*Result, error) {
	return Run(ctx, Spec{Algo: AlgoTA, K: k}, sources, acc)
}

// NRAContext runs NRA over in-memory rankings.
func NRAContext(ctx context.Context, rankings []*ranking.PartialRanking, k int) (*Result, error) {
	return RunRankings(ctx, Spec{Algo: AlgoNRA, K: k}, rankings, nil)
}

// NRAOver runs NRA over sources.
func NRAOver(ctx context.Context, sources []faults.Source, k int, acc *telemetry.AccessAccountant) (*Result, error) {
	return Run(ctx, Spec{Algo: AlgoNRA, K: k}, sources, acc)
}

// CAContext runs CA at the given cost ratio over in-memory rankings.
func CAContext(ctx context.Context, rankings []*ranking.PartialRanking, k, ratio int) (*Result, error) {
	return RunRankings(ctx, Spec{Algo: AlgoCA, K: k, CostRatio: ratio}, rankings, nil)
}

// CAOver runs CA at the given cost ratio over sources.
func CAOver(ctx context.Context, sources []faults.Source, k, ratio int, acc *telemetry.AccessAccountant) (*Result, error) {
	return Run(ctx, Spec{Algo: AlgoCA, K: k, CostRatio: ratio}, sources, acc)
}
