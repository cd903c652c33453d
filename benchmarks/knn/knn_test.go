package knn

import (
	"math/rand"
	"sort"
	"testing"

	"pimeval/benchmarks/suite"
	"pimeval/pim"
)

func TestClassifyMajority(t *testing.T) {
	dist := []int64{1, 2, 3, 4, 5, 100, 200}
	labels := []int32{2, 2, 1, 2, 1, 0, 0}
	// k=5 nearest: labels 2,2,1,2,1 -> majority 2.
	if got := classify(dist, labels); got != 2 {
		t.Fatalf("classify = %d, want 2", got)
	}
}

func TestClassifyTieBreaksByIndex(t *testing.T) {
	// Equal distances resolve deterministically by index order.
	dist := []int64{5, 5, 5, 5, 5, 5}
	labels := []int32{0, 0, 0, 1, 1, 1}
	if got := classify(dist, labels); got != 0 {
		t.Fatalf("tie break classify = %d, want 0 (first k indices)", got)
	}
}

// classifySorted is the full-sort reference for classify: sort every
// candidate by distance then index and vote over the first min(k, n).
func classifySorted(dist []int64, labels []int32) int32 {
	idx := make([]int, len(dist))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if dist[idx[a]] != dist[idx[b]] {
			return dist[idx[a]] < dist[idx[b]]
		}
		return idx[a] < idx[b]
	})
	votes := make([]int, classes)
	for _, i := range idx[:min(k, len(idx))] {
		votes[labels[i]]++
	}
	best := int32(0)
	for c := 1; c < classes; c++ {
		if votes[c] > votes[best] {
			best = int32(c)
		}
	}
	return best
}

// TestClassifyMatchesSortReference checks the streaming selection against
// the full sort over sizes below, at and far above k, with distances drawn
// from a narrow range so the index tie-break decides most selections.
func TestClassifyMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, k - 1, k, k + 1, 17, 64, 1000, 4096}
	for trial := 0; trial < 400; trial++ {
		n := sizes[trial%len(sizes)]
		spread := int64(1 + trial%4) // 1..4 distinct distances
		dist := make([]int64, n)
		labels := make([]int32, n)
		for i := range dist {
			dist[i] = 1000 + rng.Int63n(spread)
			labels[i] = rng.Int31n(classes)
		}
		if trial%3 == 0 {
			dist[rng.Intn(n)] = -3 // a single clear nearest point
		}
		if got, want := classify(dist, labels), classifySorted(dist, labels); got != want {
			t.Fatalf("trial %d, n=%d: classify = %d, sort reference = %d", trial, n, got, want)
		}
	}
}

func TestFunctionalAllTargets(t *testing.T) {
	for _, tgt := range pim.AllTargets {
		res, err := New().Run(suite.Config{Target: tgt, Ranks: 1, Functional: true, Size: 512})
		if err != nil {
			t.Fatalf("%v: %v", tgt, err)
		}
		if !res.Verified {
			t.Errorf("%v: classifications diverge from reference", tgt)
		}
	}
}

func TestModestSpeedup(t *testing.T) {
	// Paper: "modest speedups" — the host selection phase bounds KNN.
	res, err := New().Run(suite.Config{Target: pim.Fulcrum, Ranks: 32})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := res.SpeedupCPU()
	if w < 0.8 || w > 4 {
		t.Errorf("KNN speedup = %v, want modest (~1-2x)", w)
	}
	if res.Metrics.HostMS <= 0 {
		t.Error("KNN must record a host phase")
	}
}
