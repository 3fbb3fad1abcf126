package metrics

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/guard"
	"repro/internal/randrank"
	"repro/internal/ranking"
)

func chaosEnsemble(t *testing.T, seed int64, m int) []*ranking.PartialRanking {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := make([]*ranking.PartialRanking, 0, m)
	for i := 0; i < m; i++ {
		in = append(in, randrank.Partial(rng, 12, 4))
	}
	return in
}

// indexOf recovers the ensemble indices of a distance call's arguments.
func indexOf(in []*ranking.PartialRanking, a, b *ranking.PartialRanking) (int, int) {
	i, j := -1, -1
	for idx, r := range in {
		if r == a {
			i = idx
		}
		if r == b {
			j = idx
		}
	}
	return i, j
}

func TestPairIndexBijection(t *testing.T) {
	for _, m := range []int{0, 1, 2, 3, 7, 24} {
		total := m * (m - 1) / 2
		seen := make([]bool, total)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				idx := PairIndex(m, i, j)
				if idx < 0 || idx >= total {
					t.Fatalf("m=%d: PairIndex(%d,%d) = %d out of [0,%d)", m, i, j, idx, total)
				}
				if seen[idx] {
					t.Fatalf("m=%d: PairIndex(%d,%d) = %d collides", m, i, j, idx)
				}
				seen[idx] = true
			}
		}
	}
}

// An injected panic in one cell must surface as a *guard.PanicError inside
// the *SweepError — never crash the process, deadlock the pool, or lose the
// completed-cell accounting.
func TestSweepContainsInjectedPanic(t *testing.T) {
	const m = 16
	in := chaosEnsemble(t, 21, m)
	recoveredBefore := guard.PanicsRecovered()
	var panicked atomic.Bool
	mat, err := DistanceMatrixWith(in, func(ws *Workspace, a, b *ranking.PartialRanking) (float64, error) {
		if i, j := indexOf(in, a, b); i == 3 && j == 11 && !panicked.Swap(true) {
			panic("injected cell failure")
		}
		return KProfWS(ws, a, b)
	})
	if err == nil {
		t.Fatal("sweep over a panicking cell succeeded")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *SweepError", err)
	}
	pe, ok := guard.Recovered(err)
	if !ok {
		t.Fatalf("sweep error does not wrap a *guard.PanicError: %v", err)
	}
	if pe.Value != "injected cell failure" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	if guard.PanicsRecovered() <= recoveredBefore {
		t.Error("panic recovery telemetry did not advance")
	}
	total := m * (m - 1) / 2
	if se.M != m || se.Completed.Len() != total {
		t.Fatalf("completion state sized %d over m=%d, want %d over %d", se.Completed.Len(), se.M, total, m)
	}
	// The panicking cell is attempted but never completed: completed +
	// skipped + failed-attempts must cover the triangle exactly.
	failedAttempts := total - se.Completed.Count() - int(se.SkippedCells)
	if failedAttempts < 1 {
		t.Errorf("accounting: %d completed + %d skipped leaves %d failed attempts, want >= 1",
			se.Completed.Count(), se.SkippedCells, failedAttempts)
	}
	// Every completed bit corresponds to a correct, symmetric matrix cell.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if !se.Completed.Get(PairIndex(m, i, j)) {
				continue
			}
			want, _ := KProf(in[i], in[j])
			if mat[i][j] != want || mat[j][i] != want {
				t.Errorf("completed cell [%d][%d] = %v/%v, want %v", i, j, mat[i][j], mat[j][i], want)
			}
		}
	}
}

// ResumeDistanceMatrix computes exactly the cells the interrupted sweep left
// unfinished, and the final matrix matches an uninterrupted sweep.
func TestResumeComputesExactlyIncompleteCells(t *testing.T) {
	const m = 20
	in := chaosEnsemble(t, 33, m)
	want, err := DistanceMatrixWith(in, KProfWS)
	if err != nil {
		t.Fatal(err)
	}
	var panicked atomic.Bool
	mat, err := DistanceMatrixWith(in, func(ws *Workspace, a, b *ranking.PartialRanking) (float64, error) {
		if i, j := indexOf(in, a, b); i == 5 && j == 6 && !panicked.Swap(true) {
			panic("first pass dies here")
		}
		return KProfWS(ws, a, b)
	})
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *SweepError", err)
	}
	var resumeCalls atomic.Int64
	got, err := ResumeDistanceMatrix(in, mat, err, func(ws *Workspace, a, b *ranking.PartialRanking) (float64, error) {
		i, j := indexOf(in, a, b)
		if se.Completed.Get(PairIndex(m, i, j)) {
			t.Errorf("resume recomputed completed cell (%d,%d)", i, j)
		}
		resumeCalls.Add(1)
		return KProfWS(ws, a, b)
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	total := m * (m - 1) / 2
	if wantCalls := int64(total - se.Completed.Count()); resumeCalls.Load() != wantCalls {
		t.Errorf("resume computed %d cells, want exactly the %d incomplete ones", resumeCalls.Load(), wantCalls)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// Without usable prior state, ResumeDistanceMatrix degrades to a full sweep.
func TestResumeWithoutPriorState(t *testing.T) {
	in := chaosEnsemble(t, 5, 8)
	want, err := DistanceMatrixWith(in, KProfWS)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, prev [][]float64, prevErr error) {
		t.Helper()
		got, err := ResumeDistanceMatrix(in, prev, prevErr, KProfWS)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: [%d][%d] = %v, want %v", label, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	check("nil error", nil, nil)
	check("plain error", nil, errors.New("not a sweep error"))
	check("wrong ensemble size", nil, &SweepError{Err: errors.New("x"), M: 3, Completed: guard.NewBitmap(3)})
}

// Repeated failures keep a monotonically growing union bitmap, so iterated
// resumption always converges. Cells fail (by panic or error) exactly once
// each. A round may complete no new cell — its workers can reach only
// first-time failers before the sweep aborts — but every failing round
// consumes at least one failure, so the rounds are bounded by the failing
// cells and the fixed point matches the clean sweep. Run under -race this is
// the chaos test of the supervision layer.
func TestResumeConvergesUnderChaos(t *testing.T) {
	const m = 18
	in := chaosEnsemble(t, 77, m)
	want, err := DistanceMatrixWith(in, KProfWS)
	if err != nil {
		t.Fatal(err)
	}
	total := m * (m - 1) / 2
	// Roughly a fifth of the cells misbehave on first touch: even-indexed
	// failers panic, odd-indexed ones error.
	var failOnce [1000]atomic.Bool
	shouldFail := func(idx int) bool { return idx%5 == 2 }
	failing := 0
	for idx := 0; idx < total; idx++ {
		if shouldFail(idx) {
			failing++
		}
	}
	consumed := func() int {
		c := 0
		for idx := 0; idx < total; idx++ {
			if failOnce[idx].Load() {
				c++
			}
		}
		return c
	}
	d := func(ws *Workspace, a, b *ranking.PartialRanking) (float64, error) {
		i, j := indexOf(in, a, b)
		idx := PairIndex(m, i, j)
		if shouldFail(idx) && !failOnce[idx].Swap(true) {
			if idx%2 == 0 {
				panic(idx)
			}
			return 0, errors.New("transient cell error")
		}
		return KProfWS(ws, a, b)
	}
	mat, err := DistanceMatrixWith(in, d)
	rounds := 0
	lastDone, lastConsumed := 0, 0
	for err != nil {
		var se *SweepError
		if !errors.As(err, &se) {
			t.Fatalf("round %d: err = %T (%v), want *SweepError", rounds, err, err)
		}
		if done := se.Completed.Count(); done < lastDone {
			t.Fatalf("round %d: completed cells shrank to %d, was %d", rounds, done, lastDone)
		} else {
			lastDone = done
		}
		if c := consumed(); c <= lastConsumed {
			t.Fatalf("round %d: failed without consuming a failure (%d consumed, was %d)", rounds, c, lastConsumed)
		} else {
			lastConsumed = c
		}
		if rounds++; rounds > failing {
			t.Fatalf("resumption did not converge within %d rounds", failing)
		}
		mat, err = ResumeDistanceMatrix(in, mat, err, d)
	}
	for i := range want {
		for j := range want[i] {
			if mat[i][j] != want[i][j] {
				t.Fatalf("converged matrix wrong at [%d][%d]: %v != %v", i, j, mat[i][j], want[i][j])
			}
		}
	}
	if rounds == 0 {
		t.Error("chaos injected no failures; test is vacuous")
	}
}

// A panic must not leak a poisoned workspace back into the package pool; the
// sweep joins cleanly and subsequent sweeps still work.
func TestSweepSurvivesRepeatedPanicSweeps(t *testing.T) {
	in := chaosEnsemble(t, 9, 10)
	for round := 0; round < 8; round++ {
		_, err := DistanceMatrixWith(in, func(ws *Workspace, a, b *ranking.PartialRanking) (float64, error) {
			panic("every cell panics")
		})
		if _, ok := guard.Recovered(err); !ok {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// The pool still hands out working workspaces.
	got, err := DistanceMatrixWith(in, KProfWS)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := KProf(in[0], in[1])
	if got[0][1] != want {
		t.Errorf("post-chaos sweep wrong: %v != %v", got[0][1], want)
	}
}
