package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBoundedBasic(t *testing.T) {
	b := NewBounded(3)
	for i, s := range []float64{5, 1, 9, 3, 7, 2} {
		b.Offer(Item{ID: i, Score: s})
	}
	got := b.Descending()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	wantScores := []float64{9, 7, 5}
	for i, it := range got {
		if it.Score != wantScores[i] {
			t.Errorf("rank %d: score %v, want %v", i, it.Score, wantScores[i])
		}
	}
	if th, ok := b.Threshold(); !ok || th != 5 {
		t.Errorf("threshold = %v,%v", th, ok)
	}
}

func TestBoundedUnderfill(t *testing.T) {
	b := NewBounded(10)
	b.Offer(Item{ID: 1, Score: 2})
	if _, ok := b.Threshold(); ok {
		t.Error("threshold should be undefined when underfilled")
	}
	got := b.Descending()
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("got %v", got)
	}
}

func TestBoundedRejectsWeak(t *testing.T) {
	b := NewBounded(2)
	b.Offer(Item{ID: 0, Score: 10})
	b.Offer(Item{ID: 1, Score: 20})
	if b.Offer(Item{ID: 2, Score: 5}) {
		t.Error("weak item was kept")
	}
	if b.Offer(Item{ID: 3, Score: 10}) {
		t.Error("tied-with-threshold item should be rejected (existing kept)")
	}
	if !b.Offer(Item{ID: 4, Score: 15}) {
		t.Error("strong item rejected")
	}
}

func TestBoundedPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBounded(0) did not panic")
		}
	}()
	NewBounded(0)
}

func TestBoundedReset(t *testing.T) {
	b := NewBounded(2)
	b.Offer(Item{ID: 0, Score: 1})
	b.Reset()
	if b.Len() != 0 {
		t.Error("reset did not empty")
	}
	b.Offer(Item{ID: 1, Score: 9})
	if got := b.Descending(); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("after reset: %v", got)
	}
}

func TestBoundedMatchesSort(t *testing.T) {
	// Property: Bounded(k) over any sequence equals sort-descending[:k].
	f := func(scores []float64, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		b := NewBounded(k)
		for i, s := range scores {
			b.Offer(Item{ID: i, Score: s})
		}
		want := append([]float64{}, scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if len(want) > k {
			want = want[:k]
		}
		got := b.Descending()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Score != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMaxHeapOrdering(t *testing.T) {
	var h MaxHeap
	if _, ok := h.Peek(); ok {
		t.Error("peek on empty")
	}
	if _, ok := h.Pop(); ok {
		t.Error("pop on empty")
	}
	in := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	for i, s := range in {
		h.Push(Item{ID: i, Score: s})
	}
	if top, _ := h.Peek(); top.Score != 9 {
		t.Errorf("peek = %v", top.Score)
	}
	want := append([]float64{}, in...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i, w := range want {
		it, ok := h.Pop()
		if !ok || it.Score != w {
			t.Fatalf("pop %d = %v,%v want %v", i, it.Score, ok, w)
		}
	}
	if h.Len() != 0 {
		t.Error("heap not drained")
	}
}

func TestMaxHeapProperty(t *testing.T) {
	f := func(scores []float64) bool {
		var h MaxHeap
		for i, s := range scores {
			h.Push(Item{ID: i, Score: s})
		}
		prev, first := 0.0, true
		for {
			it, ok := h.Pop()
			if !ok {
				break
			}
			if !first && it.Score > prev {
				return false
			}
			prev, first = it.Score, false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBoundedTieOrderIndependent checks the total order at exact score
// ties: the kept set and its output order must not depend on the offer
// sequence, only on (score desc, ID asc). Prefix serving in the result
// cache relies on exactly this.
func TestBoundedTieOrderIndependent(t *testing.T) {
	items := []Item{
		{ID: 7, Score: 5}, {ID: 2, Score: 5}, {ID: 9, Score: 5},
		{ID: 4, Score: 5}, {ID: 1, Score: 8}, {ID: 3, Score: 2},
	}
	// Top-3 under the total order: (8,1), (5,2), (5,4).
	want := []Item{{ID: 1, Score: 8}, {ID: 2, Score: 5}, {ID: 4, Score: 5}}
	perm := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Item{}, items...)
		perm.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := NewBounded(3)
		for _, it := range shuffled {
			b.Offer(it)
		}
		got := b.Descending()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rank %d = %+v, want %+v (input %v)", trial, i, got[i], want[i], shuffled)
			}
		}
	}
}

// TestBoundedPrefixProperty: for any offer sequence, Bounded(k)'s output
// is the first k entries of Bounded(k') for every k' > k. This is the
// limit-independence the query walk's per-layer keep needs so that a
// cached top-K can answer any n ≤ K.
func TestBoundedPrefixProperty(t *testing.T) {
	f := func(scoresRaw []uint8, kRaw uint8) bool {
		if len(scoresRaw) == 0 {
			return true
		}
		k := int(kRaw%8) + 1
		big := NewBounded(k + 5)
		small := NewBounded(k)
		for i, s := range scoresRaw {
			it := Item{ID: i, Score: float64(s % 8)} // coarse scores force ties
			big.Offer(it)
			small.Offer(it)
		}
		wide := big.Descending()
		narrow := small.Descending()
		for i := range narrow {
			if narrow[i] != wide[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(16))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMaxHeapTiePopOrder: pops at equal scores come out in ascending ID
// regardless of push order.
func TestMaxHeapTiePopOrder(t *testing.T) {
	perm := rand.New(rand.NewSource(7))
	items := []Item{{ID: 5, Score: 3}, {ID: 1, Score: 3}, {ID: 9, Score: 3}, {ID: 2, Score: 7}, {ID: 8, Score: 3}}
	want := []Item{{ID: 2, Score: 7}, {ID: 1, Score: 3}, {ID: 5, Score: 3}, {ID: 8, Score: 3}, {ID: 9, Score: 3}}
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Item{}, items...)
		perm.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var h MaxHeap
		for _, it := range shuffled {
			h.Push(it)
		}
		for i, w := range want {
			got, ok := h.Pop()
			if !ok || got != w {
				t.Fatalf("trial %d: pop %d = %+v,%v want %+v", trial, i, got, ok, w)
			}
		}
	}
}

func TestMaxHeapReset(t *testing.T) {
	var h MaxHeap
	h.Push(Item{Score: 1})
	h.Reset()
	if h.Len() != 0 {
		t.Error("reset failed")
	}
}

// TestKthLargestMatchesSort: the quickselect agrees with a full sort at
// every rank, on inputs rich in duplicates (the candidate scores of a
// tie-heavy corpus) as well as distinct ones.
func TestKthLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			if trial%2 == 0 {
				xs[i] = float64(rng.Intn(5))
			} else {
				xs[i] = rng.NormFloat64()
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		for k := 1; k <= n; k++ {
			scratch := append([]float64(nil), xs...)
			if got := KthLargest(scratch, k); got != sorted[k-1] {
				t.Fatalf("trial %d: KthLargest(%v, %d) = %v, want %v", trial, xs, k, got, sorted[k-1])
			}
		}
	}
}

func TestKthLargestPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KthLargest with k > len did not panic")
		}
	}()
	KthLargest([]float64{1, 2}, 3)
}
