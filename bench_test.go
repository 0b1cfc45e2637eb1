// Benchmarks regenerating the paper's evaluation (one bench per table and
// figure, §4), plus microbenchmarks of core operations that benchmark/ has
// no row for (first pair, steady-state delay, telemetry overhead and bulk
// load are measured by bash benchmark/run.sh, not here). Each
// evaluation bench drives the same experiment code as cmd/experiments at a
// reduced scale so `go test -bench=.` completes in minutes; run
// `go run ./cmd/experiments -scale full` for paper-cardinality numbers.
package distjoin_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	idistjoin "distjoin/internal/distjoin"
	"distjoin/internal/experiments"
)

// benchScale keeps per-iteration work bounded for testing.B.
var benchScale = experiments.Scale{
	Name:       "bench",
	WaterN:     2_000,
	RoadsN:     10_000,
	PairCounts: []int{1, 10, 100, 1_000},
	HybridDT1:  30,
	HybridDT2:  120,
	Seed:       1998,
}

// loadBench builds the datasets once per benchmark.
func loadBench(b *testing.B) *experiments.Datasets {
	b.Helper()
	d, err := experiments.Load(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

func runExperiment(b *testing.B, fn func(*experiments.Datasets) ([]experiments.Run, error)) {
	d := loadBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (distance join measures at increasing
// result counts).
func BenchmarkTable1(b *testing.B) { runExperiment(b, experiments.Table1) }

// BenchmarkTable1Reversed regenerates the §4.1.1 reversed-operand runs.
func BenchmarkTable1Reversed(b *testing.B) { runExperiment(b, experiments.Table1Reversed) }

// BenchmarkFig6 regenerates Figure 6 (four algorithm versions).
func BenchmarkFig6(b *testing.B) { runExperiment(b, experiments.Fig6) }

// BenchmarkFig7 regenerates Figure 7 (maximum distance / maximum pairs).
func BenchmarkFig7(b *testing.B) { runExperiment(b, experiments.Fig7) }

// BenchmarkFig8 regenerates Figure 8 (memory vs hybrid queues).
func BenchmarkFig8(b *testing.B) { runExperiment(b, experiments.Fig8) }

// BenchmarkFig8Adaptive ablates the adaptive-D_T extension alone.
func BenchmarkFig8Adaptive(b *testing.B) {
	d := loadBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := idistjoin.NewJoinIndexes(idistjoin.WrapRTree(d.Water), idistjoin.WrapRTree(d.Roads), idistjoin.Options{
			Queue: idistjoin.QueueHybrid, QueueStore: distjoin.NewMemPageStore, // DT 0 = adaptive
		})
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 1000; k++ {
			if _, ok, err := j.Next(); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
		j.Close()
	}
}

// BenchmarkFig9 regenerates Figure 9 (semi-join filtering strategies).
func BenchmarkFig9(b *testing.B) { runExperiment(b, experiments.Fig9) }

// BenchmarkFig10 regenerates Figure 10 (semi-join max distance / max pairs).
func BenchmarkFig10(b *testing.B) { runExperiment(b, experiments.Fig10) }

// BenchmarkSec414NestedLoop regenerates the §4.1.4 nested-loop comparison.
func BenchmarkSec414NestedLoop(b *testing.B) { runExperiment(b, experiments.Sec414) }

// BenchmarkSec423SemiJoinVsNN regenerates the §4.2.3 comparison.
func BenchmarkSec423SemiJoinVsNN(b *testing.B) { runExperiment(b, experiments.Sec423) }

// ---- Microbenchmarks of the public API ----

func benchPoints(seed int64, n int) []distjoin.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]distjoin.Point, n)
	for i := range pts {
		pts[i] = distjoin.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
	}
	return pts
}

// BenchmarkIndexInsert measures one-at-a-time R* insertion.
func BenchmarkIndexInsert(b *testing.B) {
	idx, err := distjoin.NewIndex(distjoin.IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	rnd := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := distjoin.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
		if err := idx.InsertPoint(p, distjoin.ObjID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNearest measures incremental nearest-neighbour queries.
func BenchmarkKNearest(b *testing.B) {
	idx := distjoin.NewIndexFromPoints(benchPoints(7, 50_000))
	defer idx.Close()
	rnd := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := distjoin.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
		if _, err := distjoin.KNearest(idx, q, 10, distjoin.NNOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemiJoinFull measures the full semi-join with the strongest
// filter — the §4.2.3 headline configuration.
func BenchmarkSemiJoinFull(b *testing.B) {
	a := distjoin.NewIndexFromPoints(benchPoints(9, 2_000))
	defer a.Close()
	c := distjoin.NewIndexFromPoints(benchPoints(10, 10_000))
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := distjoin.DistanceSemiJoinIndexes(a.AsSpatialIndex(), c.AsSpatialIndex(), distjoin.FilterGlobalAll, distjoin.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		s.Close()
	}
}

// BenchmarkNoOpOption times a query against itself with an option that
// excludes nothing: a Window1 that covers everything. The two must read the
// same — one generator decides every expansion, whatever the query carries
// (DESIGN.md §5; EXPERIMENTS.md "Options and the generation path" has the
// numbers from before there was one). A third input, the window that keeps
// the western half of the first relation, is a different query — it is there
// to show what a window that does cut costs. The join's first 4,000 pairs and
// the GlobalAll semi-join's drain at the benchmark's mid scale, on both
// queues; -short shrinks it to a smoke run.
func BenchmarkNoOpOption(b *testing.B) {
	water, roads, first := 12_000, 64_000, 4_000
	if testing.Short() {
		water, roads, first = 800, 1_600, 200
	}
	a, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, datagen.Water(1998, water))
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	c, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, datagen.Roads(1998, roads))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	all := distjoin.R(distjoin.Pt(math.Inf(-1), math.Inf(-1)), distjoin.Pt(math.Inf(1), math.Inf(1)))
	west := distjoin.R(distjoin.Pt(datagen.World.Lo[0], datagen.World.Lo[1]), distjoin.Pt((datagen.World.Lo[0]+datagen.World.Hi[0])/2, datagen.World.Hi[1]))
	for _, q := range []struct {
		name string
		opts distjoin.Options
	}{
		{"memory", distjoin.Options{}},
		{"hybrid", distjoin.Options{Queue: distjoin.QueueHybrid, HybridDT: 40, QueueStore: distjoin.NewMemPageStore}},
	} {
		for _, w := range []struct {
			name string
			win  *distjoin.Rect
		}{{"zero", nil}, {"window1-all", &all}, {"window1-west", &west}} {
			opts := q.opts
			opts.Window1 = w.win
			b.Run("join-first/"+q.name+"/"+w.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					j, err := distjoin.DistanceJoinIndexes(a.AsSpatialIndex(), c.AsSpatialIndex(), opts)
					if err != nil {
						b.Fatal(err)
					}
					for n := 0; n < first; n++ {
						if _, ok, err := j.Next(); err != nil || !ok {
							b.Fatal("short join", err)
						}
					}
					j.Close()
				}
			})
			b.Run("semi-drain/"+q.name+"/"+w.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s, err := distjoin.DistanceSemiJoinIndexes(a.AsSpatialIndex(), c.AsSpatialIndex(), distjoin.FilterGlobalAll, opts)
					if err != nil {
						b.Fatal(err)
					}
					for {
						_, ok, err := s.Next()
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
					}
					s.Close()
				}
			})
		}
	}
}

// BenchmarkAblationDeferLeaves measures the §2.2.2 deferred-leaf strategy
// against the default expansion on the bench datasets.
func BenchmarkAblationDeferLeaves(b *testing.B) {
	d := loadBench(b)
	for _, defer_ := range []bool{false, true} {
		name := "Default"
		if defer_ {
			name = "DeferLeaves"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j, err := idistjoin.NewJoinIndexes(idistjoin.WrapRTree(d.Water), idistjoin.WrapRTree(d.Roads), idistjoin.Options{DeferLeaves: defer_})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 1000; k++ {
					if _, ok, err := j.Next(); err != nil || !ok {
						b.Fatal(ok, err)
					}
				}
				j.Close()
			}
		})
	}
}

// BenchmarkAblationPlaneSweep measures the Figure 4 plane sweep's effect on
// the Simultaneous traversal under a finite maximum distance (where the
// paper says it helps).
func BenchmarkAblationPlaneSweep(b *testing.B) {
	d := loadBench(b)
	for _, sweep := range []bool{true, false} {
		name := "Sweep"
		if !sweep {
			name = "NoSweep"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j, err := idistjoin.NewJoinIndexes(idistjoin.WrapRTree(d.Water), idistjoin.WrapRTree(d.Roads), idistjoin.Options{
					Traversal:    idistjoin.TraverseSimultaneous,
					NoPlaneSweep: !sweep,
					MaxDist:      500,
				})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 1000; k++ {
					if _, ok, err := j.Next(); err != nil || !ok {
						b.Fatal(ok, err)
					}
				}
				j.Close()
			}
		})
	}
}

// BenchmarkKNearestJoin measures the k-NN join extension.
func BenchmarkKNearestJoin(b *testing.B) {
	a := distjoin.NewIndexFromPoints(benchPoints(11, 1_000))
	defer a.Close()
	c := distjoin.NewIndexFromPoints(benchPoints(12, 5_000))
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := distjoin.KNearestJoinIndexes(a.AsSpatialIndex(), c.AsSpatialIndex(), 5, distjoin.FilterInside2, distjoin.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		s.Close()
	}
}

// BenchmarkDimSweep regenerates the §5 higher-dimensions sweep.
func BenchmarkDimSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DimSweep(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNilRecorderZeroAllocs is the hard assertion behind the
// telemetry-overhead rows of benchmark/: the nil-Recorder hooks a meter calls per emitted pair must allocate nothing.
// The engine-side half of the pin — with every sink nil there is no meter at
// all, so the per-pair path allocates nothing for telemetry and reads no
// clock — is TestNilSinksZeroAllocsZeroClockReads in internal/meter and
// TestNoSinkNoMeter in internal/distjoin.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var rec *distjoin.Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Emit(1.0, 3, time.Microsecond, time.Microsecond)
		rec.Counts().Merge(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil Recorder hooks allocate %v per pair, want 0", allocs)
	}
}
