package topk

import (
	"context"
	"math"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// listSource is the infallible faults.Source over an in-memory partial
// ranking: sequential access yields entries in non-decreasing position order,
// ties within a bucket by ascending element ID, and random access reads a
// position directly. Its accesses never fail; every one is charged to list
// `list` of the run's accountant, so the chaos wrappers of internal/faults
// compose on top of it and a whole run's sequential, bucket-granular and
// random accesses land in one telemetry.AccessReport.
type listSource struct {
	pr     *ranking.PartialRanking
	acc    *telemetry.AccessAccountant
	list   int
	bucket int // bucket of the next unread entry
	offset int // its index within the bucket
}

// NewListSource exposes a partial ranking as a faults.Source that charges its
// sequential and random accesses to list `list` of acc. Wrap it with
// faults.Inject and faults.WithRetry to build a chaos pipeline.
func NewListSource(pr *ranking.PartialRanking, acc *telemetry.AccessAccountant, list int) faults.Source {
	return &listSource{pr: pr, acc: acc, list: list}
}

// listSources exposes each ranking as a list source charging list i to acc,
// passed through wrap when it is non-nil (typically faults.Inject and
// faults.WithRetry, charging the same acc).
func listSources(rankings []*ranking.PartialRanking, acc *telemetry.AccessAccountant, wrap faults.Wrapper) []faults.Source {
	srcs := make([]faults.Source, len(rankings))
	for i, r := range rankings {
		srcs[i] = NewListSource(r, acc, i)
		if wrap != nil {
			srcs[i] = wrap(i, srcs[i], acc)
		}
	}
	return srcs
}

func (s *listSource) Next(context.Context) (Entry, bool, error) {
	for s.bucket < s.pr.NumBuckets() {
		b := s.pr.Bucket(s.bucket)
		if s.offset < len(b) {
			e := Entry{Elem: b[s.offset], Pos2: s.pr.BucketPos2(s.bucket)}
			s.offset++
			s.acc.Sequential(s.list)
			return e, true, nil
		}
		s.bucket++
		s.offset = 0
	}
	return Entry{}, false, nil
}

// Peek2 returns the doubled position of the next unread entry (the
// frontier), or math.MaxInt64 when exhausted. Peeking is free: a sequential
// scan knows it has not yet passed a given position.
func (s *listSource) Peek2() int64 {
	b, off := s.bucket, s.offset
	for b < s.pr.NumBuckets() {
		if off < s.pr.BucketSize(b) {
			return s.pr.BucketPos2(b)
		}
		b++
		off = 0
	}
	return math.MaxInt64
}

func (s *listSource) Pos2(_ context.Context, elem int) (int64, error) {
	s.acc.Random(s.list)
	return s.pr.Pos2(elem), nil
}

func (s *listSource) N() int { return s.pr.N() }
