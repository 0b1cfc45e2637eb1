package distjoin

import (
	"fmt"
	"math"

	"distjoin/internal/costmodel"
)

// CostOptions configures the sampling-based estimators; see
// internal/costmodel. The zero value uses the Euclidean metric and a
// 256-object sample per input.
type CostOptions = costmodel.Options

// EstimatePairsWithin estimates how many (a, b) object pairs lie within
// distance d — the cardinality a query optimizer needs for a within join
// (§5's cost-model direction).
func EstimatePairsWithin(a, b *Index, d float64, opts CostOptions) (float64, error) {
	return costmodel.PairsWithin(a.tree, b.tree, d, opts)
}

// EstimateDistanceForK estimates the distance of the k-th closest pair of
// the distance join of a and b.
func EstimateDistanceForK(a, b *Index, k int, opts CostOptions) (float64, error) {
	return costmodel.DistanceForK(a.tree, b.tree, k, opts)
}

// EstimateSelectivity estimates the fraction of idx's objects accepted by
// pred — the quantity that decides between filtering the incremental join's
// output and pre-selecting into a new index (the two §5 query plans).
func EstimateSelectivity(idx *Index, pred func(ObjID) bool, opts CostOptions) (float64, error) {
	return costmodel.Selectivity(idx.tree, pred, opts)
}

// SuggestMaxDist proposes a MaxDist for a join that will stop after k
// pairs, inflated by the safety factor (>= 1). Pairing this with MaxPairs
// recovers most of Figure 7's MaxDist benefit without knowing the true
// k-th distance; if the suggestion proves too small the engine's restart
// path (§2.2.4) transparently recovers.
func SuggestMaxDist(a, b *Index, k int, safety float64, opts CostOptions) (float64, error) {
	return costmodel.SuggestMaxDist(a.tree, b.tree, k, safety, opts)
}

// ExplainRow is one predicted-vs-actual comparison of a run against the
// cost model (see BuildExplain).
type ExplainRow = costmodel.ExplainRow

// ExplainConfig describes the join run whose observed actuals are compared
// against the cost model's predictions.
type ExplainConfig struct {
	// K is the run's MaxPairs bound; 0 skips the distance-for-k and
	// suggested-max-dist rows.
	K int
	// KthDist is the observed distance of the K-th (final) reported pair.
	KthDist float64
	// MaxDist is the run's distance bound; 0 or +Inf skips the
	// pairs-within row.
	MaxDist float64
	// PairsWithin is the observed number of pairs reported within MaxDist.
	PairsWithin int64
	// Safety is the SuggestMaxDist inflation factor (default 2, the
	// cost model's recommendation).
	Safety float64
	// Cost configures the sampling estimators.
	Cost CostOptions
}

// BuildExplain runs the cost-model estimators for the described run and
// returns predicted-vs-actual rows: the model's k-th-pair distance and
// suggested distance cap against the observed k-th distance, and the
// pairs-within-d cardinality estimate against the observed result count.
func BuildExplain(a, b *Index, cfg ExplainConfig) ([]ExplainRow, error) {
	if cfg.Safety <= 0 {
		cfg.Safety = 2
	}
	var rows []ExplainRow
	add := func(metric string, predicted, actual float64) {
		rows = append(rows, ExplainRow{
			Metric:    metric,
			Predicted: predicted,
			Actual:    actual,
			RelErr:    costmodel.RelErr(predicted, actual),
		})
	}
	if cfg.K > 0 {
		dk, err := EstimateDistanceForK(a, b, cfg.K, cfg.Cost)
		if err != nil {
			return nil, fmt.Errorf("distjoin: explain distance-for-k: %w", err)
		}
		add("distance_for_k", dk, cfg.KthDist)
		sd, err := SuggestMaxDist(a, b, cfg.K, cfg.Safety, cfg.Cost)
		if err != nil {
			return nil, fmt.Errorf("distjoin: explain suggest-max-dist: %w", err)
		}
		if !math.IsInf(sd, 1) {
			add("suggest_max_dist", sd, cfg.KthDist)
		}
	}
	if cfg.MaxDist > 0 && !math.IsInf(cfg.MaxDist, 1) {
		pw, err := EstimatePairsWithin(a, b, cfg.MaxDist, cfg.Cost)
		if err != nil {
			return nil, fmt.Errorf("distjoin: explain pairs-within: %w", err)
		}
		add("pairs_within_d", pw, float64(cfg.PairsWithin))
	}
	return rows, nil
}
