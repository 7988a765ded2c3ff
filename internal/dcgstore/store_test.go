package dcgstore

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"gocbs/internal/profile"
)

func edge(c, s, t int) profile.Edge { return profile.Edge{Caller: c, Site: s, Callee: t} }

func TestNewRoundsShardsUpToPowerOfTwo(t *testing.T) {
	cases := map[int]int{-1: DefaultShards, 0: DefaultShards, 1: 1, 2: 2, 3: 4, 17: 32, 32: 32}
	for in, want := range cases {
		if got := New(in).NumShards(); got != want {
			t.Errorf("New(%d).NumShards() = %d, want %d", in, got, want)
		}
	}
}

func TestAddSampleAndLockFreeReads(t *testing.T) {
	s := New(4)
	s.AddSample(edge(1, 2, 3), 5)
	s.AddSample(edge(1, 2, 3), 0)  // ignored
	s.AddSample(edge(1, 2, 3), -1) // ignored
	s.AddSample(edge(4, 5, 6), 15)

	if w := s.Weight(edge(1, 2, 3)); w != 5 {
		t.Errorf("Weight = %v, want 5", w)
	}
	if tw := s.TotalWeight(); tw != 20 {
		t.Errorf("TotalWeight = %v, want 20", tw)
	}
	if n := s.NumEdges(); n != 2 {
		t.Errorf("NumEdges = %d, want 2", n)
	}
	if p := s.Percent(edge(4, 5, 6)); math.Abs(p-75) > 1e-12 {
		t.Errorf("Percent = %v, want 75", p)
	}
	if st := s.Stats(); st.SamplesIngested != 20 || st.Edges != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestEveryWriteIsVisibleToTheNextRead checks read-your-writes on
// every read path after every single write, merge and decay: reads
// never trail writes, so there is nothing to flush or sync.
func TestEveryWriteIsVisibleToTheNextRead(t *testing.T) {
	s := New(4)
	ref := profile.NewDCG()
	check := func(step string) {
		t.Helper()
		var total float64
		for _, e := range ref.Edges() {
			if got, want := s.Weight(e), ref.Weight(e); got != want {
				t.Fatalf("%s: Weight(%v) = %v, want %v", step, e, got, want)
			}
			total += ref.Weight(e)
		}
		if got := s.TotalWeight(); got != total {
			t.Fatalf("%s: TotalWeight = %v, want %v", step, got, total)
		}
		if got := s.NumEdges(); got != ref.NumEdges() {
			t.Fatalf("%s: NumEdges = %d, want %d", step, got, ref.NumEdges())
		}
		if st := s.Stats(); st.Edges != ref.NumEdges() || st.TotalWeight != total {
			t.Fatalf("%s: Stats edges/total = %d/%v, want %d/%v", step, st.Edges, st.TotalWeight, ref.NumEdges(), total)
		}
	}
	for i := 0; i < 300; i++ {
		e := edge(i%7, i%11, i%5)
		s.AddSample(e, 1)
		ref.AddSample(e, 1)
		check(fmt.Sprintf("AddSample %d", i))
	}
	for i := 0; i < 20; i++ {
		d := profile.NewDCG()
		for j := 0; j < 10; j++ {
			d.AddSample(edge(100+i, j, j%3), float64(1+j))
		}
		s.MergeDCG(d)
		ref.Merge(d)
		check(fmt.Sprintf("MergeDCG %d", i))
	}
	s.Decay(0.5, 0)
	ref = ref.MapWeights(func(_ profile.Edge, w float64) float64 { return w * 0.5 })
	check("Decay")
}

func TestMergeDCGMatchesSerialMerge(t *testing.T) {
	a := profile.NewDCG()
	a.AddSample(edge(1, 2, 3), 4)
	a.AddSample(edge(2, 3, 4), 6)
	b := profile.NewDCG()
	b.AddSample(edge(1, 2, 3), 1)
	b.AddSample(edge(9, 9, 9), 2)

	s := New(8)
	s.MergeDCG(a)
	s.MergeDCG(b)
	s.MergeDCG(nil) // counted, harmless

	ref := profile.NewDCG()
	ref.Merge(a)
	ref.Merge(b)

	var sb, rb bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), rb.Bytes()) {
		t.Error("store snapshot diverged from serial merge")
	}
	if st := s.Stats(); st.Merges != 3 {
		t.Errorf("Merges = %d, want 3", st.Merges)
	}
	// Reads after a merge see it.
	if w := s.Weight(edge(1, 2, 3)); w != 5 {
		t.Errorf("post-merge Weight = %v, want 5", w)
	}
}

func TestDecayEpochs(t *testing.T) {
	s := New(4)
	s.AddSample(edge(1, 1, 1), 100)
	s.AddSample(edge(2, 2, 2), 1)

	pruned := s.Decay(0.5, 1) // 1*0.5 <= 1 prunes the light edge
	if pruned != 1 {
		t.Errorf("pruned = %d, want 1", pruned)
	}
	if w := s.Weight(edge(1, 1, 1)); w != 50 {
		t.Errorf("decayed weight = %v, want 50", w)
	}
	if w := s.Weight(edge(2, 2, 2)); w != 0 {
		t.Errorf("pruned edge still weighs %v", w)
	}
	if tw := s.TotalWeight(); tw != 50 {
		t.Errorf("decayed total = %v, want 50", tw)
	}
	if s.Epoch() != 1 {
		t.Errorf("Epoch = %d, want 1", s.Epoch())
	}
	// Cumulative ingest stats are not rewritten by decay.
	if st := s.Stats(); st.SamplesIngested != 101 {
		t.Errorf("SamplesIngested = %v, want 101", st.SamplesIngested)
	}

	// Factor clamping: Decay(>1) must not inflate weights.
	s.Decay(2, 0)
	if w := s.Weight(edge(1, 1, 1)); w != 50 {
		t.Errorf("Decay(2) changed weight to %v", w)
	}
	// Decay(0) empties the store.
	s.Decay(0, 0)
	if s.NumEdges() != 0 || s.TotalWeight() != 0 {
		t.Errorf("Decay(0) left %d edges, total %v", s.NumEdges(), s.TotalWeight())
	}
}

func TestSnapshotIsConsistentAndDetached(t *testing.T) {
	s := New(4)
	s.AddSample(edge(1, 1, 1), 3)
	snap := s.Snapshot()
	s.AddSample(edge(1, 1, 1), 7) // must not leak into the snapshot
	if snap.Weight(edge(1, 1, 1)) != 3 || snap.Total() != 3 {
		t.Errorf("snapshot not detached: %v/%v", snap.Weight(edge(1, 1, 1)), snap.Total())
	}
}

func TestEdgeHashSpreadsConsecutiveIDs(t *testing.T) {
	s := New(8)
	hit := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		hit[edgeHash(edge(i, i+1, i+2))&s.mask] = true
	}
	if len(hit) < 6 {
		t.Errorf("64 consecutive edges landed on only %d of 8 shards", len(hit))
	}
}

// mergeFixture returns a store pre-filled with about storeEdges edges
// and a 50-edge delta, half of whose edges the store already holds.
func mergeFixture(storeEdges int) (*Store, *profile.DCG) {
	s := New(DefaultShards)
	for i := 0; i < storeEdges; i++ {
		s.AddSample(edge(i/64, i, i%64), 1)
	}
	d := profile.NewDCG()
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			d.AddSample(edge(i/64, i, i%64), 2)
		} else {
			d.AddSample(edge(-1, -i, i), 3)
		}
	}
	return s, d
}

// TestMergeCostIndependentOfStoreSize pins MergeDCG to O(delta): the
// same 50-edge delta allocates no more merging into a 100 000-edge
// store than into a 100-edge one.
func TestMergeCostIndependentOfStoreSize(t *testing.T) {
	allocs := func(storeEdges int) float64 {
		s, d := mergeFixture(storeEdges)
		return testing.AllocsPerRun(20, func() { s.MergeDCG(d) })
	}
	small, big := allocs(100), allocs(100_000)
	if big > small {
		t.Errorf("merge allocs grow with store size: %v into 100 edges, %v into 100 000", small, big)
	}
}

// BenchmarkMergeDCG times a 50-edge delta merged into a small and a
// large store, per delta edge.
func BenchmarkMergeDCG(b *testing.B) {
	for _, n := range []int{100, 100_000} {
		b.Run(fmt.Sprintf("store=%d", n), func(b *testing.B) {
			s, d := mergeFixture(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MergeDCG(d)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.NumEdges()), "ns/edge")
		})
	}
}
