package rankties

import (
	"context"

	"repro/internal/topk"
)

// MedRankResult is the outcome of a streaming MEDRANK run, including
// sequential-access accounting.
type MedRankResult = topk.Result

// AccessStats records how much of each input list an engine probed.
type AccessStats = topk.AccessStats

// MedRankPolicy selects the probe schedule of the streaming engine.
type MedRankPolicy = topk.Policy

// Probe schedules.
const (
	// GlobalMerge probes the list with the smallest frontier position.
	GlobalMerge = topk.GlobalMerge
	// RoundRobin probes lists cyclically, the schedule of Section 6.
	RoundRobin = topk.RoundRobin
	// GlobalMergeBuckets charges one I/O per bucket (an index scan returns
	// a whole run of tied rows); see AccessStats.BucketProbes.
	GlobalMergeBuckets = topk.GlobalMergeBuckets
	// RoundRobinBuckets is RoundRobin at bucket granularity.
	RoundRobinBuckets = topk.RoundRobinBuckets
)

// MedRank runs the streaming median-rank top-k aggregation of Section 6:
// it returns exactly MedianTopK's answer while reading each input only as
// deeply as needed to certify the winners, with every probe counted. In
// the sequential-access model this algorithm is instance-optimal.
func MedRank(rankings []*PartialRanking, k int, policy MedRankPolicy) (*MedRankResult, error) {
	return MedRankContext(context.Background(), rankings, k, policy)
}

// MedRankContext is MedRank under a caller context: cancellation or deadline
// expiry aborts the run between probes with ctx.Err().
func MedRankContext(ctx context.Context, rankings []*PartialRanking, k int, policy MedRankPolicy) (*MedRankResult, error) {
	return topk.RunRankings(ctx, topk.Spec{K: k, Policy: policy}, rankings, nil)
}

// Degraded annotates a MedRankResult whose input lists partially died
// mid-query (fallible-source runs only); see the internal faults package and
// topk.Run for building fallible pipelines.
type Degraded = topk.Degraded

// FullScanCost returns the access cost of reading every list completely,
// the baseline MedRank is measured against.
func FullScanCost(rankings []*PartialRanking) AccessStats {
	return topk.FullScanCost(rankings)
}

// CertificateLowerBound returns a conservative per-instance lower bound on
// the probes any correct sequential-access algorithm needs to certify the
// given winners.
func CertificateLowerBound(rankings []*PartialRanking, winners []int) int {
	return topk.CertificateLowerBound(rankings, winners)
}
