package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
)

// scale fixes the input sizes and the per-repetition work of every
// workload. hybridDT is chosen per scale so that a drain of drainPairs
// reloads about 13 disk buckets (d_K / DT ≈ 13.5), like the mid scale the
// benchmark is defined at.
type scale struct {
	name         string
	water, roads int
	// firstPairs is join-first's first page: the first pair and the
	// deliveries right after it. The tail of their delays is a property of
	// the sample's points (how many of the first pairs need a node pair
	// expanded): over a 500-pair page delay_p99_us differed by 0.19 of its
	// median between seeds, over 4,000 pairs by 0.085, and the median delay
	// (≈ 4 µs at mid) sits in the plain-pop mode, off the boundary between
	// the two modes that it crosses near 1,000. The first pair is still
	// 70 % of a repetition's wall.
	firstPairs int
	drainPairs int     // join-drain-*: pairs per repetition
	hybridDT   float64 // join-drain-hybrid: the queue's distance increment
	pulls      int     // served-pulls: pulls of pullK pairs per session after the first pull
}

const pullK = 20

var scales = []scale{
	{name: "smoke", water: 800, roads: 1_600, firstPairs: 200, drainPairs: 2_000, hybridDT: 200, pulls: 20},
	{name: "small", water: 4_000, roads: 20_000, firstPairs: 4_000, drainPairs: 20_000, hybridDT: 80, pulls: 200},
	{name: "mid", water: 12_000, roads: 64_000, firstPairs: 4_000, drainPairs: 50_000, hybridDT: 40, pulls: 200},
	{name: "paper", water: datagen.PaperWaterSize, roads: datagen.PaperRoadsSize, firstPairs: 4_000, drainPairs: 100_000, hybridDT: 18, pulls: 200},
}

func scaleByName(name string) (scale, error) {
	for _, s := range scales {
		if s.name == name {
			return s, nil
		}
	}
	return scale{}, fmt.Errorf("unknown scale %q (smoke, small, mid, paper)", name)
}

// tenth is the 1/10-scale twin of s that the brute-force oracle can afford:
// a tenth of each input and of the pairs asked for.
func (s scale) tenth() scale {
	s.name += "/10"
	s.water /= 10
	s.roads /= 10
	s.firstPairs /= 10
	s.drainPairs /= 10
	return s
}

// The map every dataset is sampled from: the paper-cardinality Water and
// Roads layers of internal/datagen under one fixed seed. A benchmark seed
// chooses which centroids of that map a run indexes, not where the rivers
// and towns lie: layouts drawn from different datagen seeds differ by ±25 %
// in time to first pair and ±15 % in allocations, which would drown the
// regression bounds, while samples of one map differ by about 3 %. The
// paper, too, measures one map (Washington, DC).
const mapSeed = 1998

type dataset struct {
	water, roads []distjoin.Point
}

// makeData draws the i-th sample of a seed from the map. The same seed, i
// and sizes give the same points in the same order. A seed shuffles each
// layer once, and its samples are consecutive stretches of that shuffle
// (wrapping round): each is a uniform sample of the map, but together they
// cover the map evenly — at mid five samples hold every water centroid once
// or twice — so what a run pools over its samples depends far less on the
// seed than five independent draws do (semi-drain's median delay sits where
// the delay distribution is steepest and spread 0.17–0.23 of its median
// between seeds with independent draws).
func makeData(seed int64, i, nWater, nRoads int) dataset {
	rnd := rand.New(rand.NewSource(seed))
	return dataset{
		water: sample(rnd, i, datagen.Water(mapSeed, datagen.PaperWaterSize), nWater),
		roads: sample(rnd, i, datagen.Roads(mapSeed+1, datagen.PaperRoadsSize), nRoads),
	}
}

// sample picks the i-th stretch of n points of rnd's shuffle of pts, keeping
// map order.
func sample(rnd *rand.Rand, i int, pts []distjoin.Point, n int) []distjoin.Point {
	if n > len(pts) {
		n = len(pts)
	}
	perm := rnd.Perm(len(pts))
	pick := make([]int, n)
	for j := range pick {
		pick[j] = perm[(i*n+j)%len(perm)]
	}
	sort.Ints(pick)
	out := make([]distjoin.Point, n)
	for j, p := range pick {
		out[j] = pts[p]
	}
	return out
}

// indexes is the pair of bulk-loaded R*-trees a workload joins.
type indexes struct {
	water, roads *distjoin.Index
}

func (ix *indexes) Close() {
	ix.water.Close()
	ix.roads.Close()
}

// buildIndexes bulk-loads both inputs with the default IndexConfig (2 KiB
// pages, 128-frame pool) and flushes them: bulk loading leaves dirty frames
// that would otherwise be written inside the first timed query.
func buildIndexes(d dataset) (*indexes, error) {
	water, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, d.water)
	if err != nil {
		return nil, fmt.Errorf("bulk-loading water: %w", err)
	}
	roads, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, d.roads)
	if err != nil {
		water.Close()
		return nil, fmt.Errorf("bulk-loading roads: %w", err)
	}
	ix := &indexes{water: water, roads: roads}
	for _, idx := range []*distjoin.Index{water, roads} {
		if err := idx.Flush(); err != nil {
			ix.Close()
			return nil, fmt.Errorf("flushing index: %w", err)
		}
	}
	return ix, nil
}

// numSamples is how many samples of the map one run indexes. Repetitions
// rotate over them and every figure pools or averages them all. One sample
// is not enough: removing or adding a point shifts the bulk loader's tile
// boundaries, so two samples of the same map give trees whose first pair
// costs up to 8 % more or fewer allocations and whose early inter-pair
// delays differ by half — differences of packing, not of the program. It is
// also the number of set-ups a run times; setup_s is their median, so one
// slow start does not decide it.
const numSamples = 5

// sampleSet is the samples one run joins, each with its pair of indexes.
type sampleSet struct {
	data []dataset
	ix   []*indexes
}

func (s *sampleSet) Close() {
	for _, ix := range s.ix {
		ix.Close()
	}
}

// target is one sample's pair of indexes as the engine sees them.
type target struct {
	a, b distjoin.SpatialIndex
}

// targets exposes every sample to the engine, through wrap when it is set.
func (s *sampleSet) targets(wrap func(distjoin.SpatialIndex) distjoin.SpatialIndex) []target {
	out := make([]target, len(s.ix))
	for i, ix := range s.ix {
		out[i] = target{a: ix.water.AsSpatialIndex(), b: ix.roads.AsSpatialIndex()}
		if wrap != nil {
			out[i] = target{a: wrap(out[i].a), b: wrap(out[i].b)}
		}
	}
	return out
}

// setUpInProcess draws and indexes the run's samples, timing each set-up,
// and returns them with the median set-up time. The host clock is sampled
// before each set-up.
func setUpInProcess(seed int64, sc scale, host *hostClock) (*sampleSet, float64, error) {
	set := &sampleSet{}
	var times []float64
	for i := 0; i < numSamples; i++ {
		host.sample(30 * time.Millisecond)
		start := time.Now()
		d := makeData(seed, i, sc.water, sc.roads)
		ix, err := buildIndexes(d)
		if err != nil {
			set.Close()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		set.data = append(set.data, d)
		set.ix = append(set.ix, ix)
	}
	return set, median(times), nil
}

// writeCSV stores points in the format distjoind -csv reads. Coordinates
// are written with full precision, so the daemon indexes bit-identical
// points.
func writeCSV(path string, pts []distjoin.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := datagen.WritePoints(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
