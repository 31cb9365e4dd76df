package fusecache

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// genLists builds k random MRU-sorted lists with sizes up to maxLen.
func genLists(rng *rand.Rand, k, maxLen int, valueRange int64) []List {
	lists := make([]List, k)
	for i := range lists {
		n := rng.Intn(maxLen + 1)
		l := make(List, n)
		for j := range l {
			l[j] = rng.Int63n(valueRange)
		}
		sort.Slice(l, func(a, b int) bool { return l[a] > l[b] })
		lists[i] = l
	}
	return lists
}

func totalLen(lists []List) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

func TestTopNBasic(t *testing.T) {
	lists := []List{
		{100, 90, 80},
		{95, 85},
		{99, 50, 10},
	}
	r, err := TopN(lists, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 4 {
		t.Fatalf("Total = %d, want 4", r.Total)
	}
	// Top 4 values are 100, 99, 95, 90 → take 2 from list0, 1 from list1, 1 from list2.
	want := []int{2, 1, 1}
	for i := range want {
		if r.Take[i] != want[i] {
			t.Fatalf("Take = %v, want %v", r.Take, want)
		}
	}
}

func TestTopNZero(t *testing.T) {
	lists := []List{{3, 2, 1}}
	r, err := TopN(lists, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 0 || r.Take[0] != 0 {
		t.Fatalf("TopN(0) = %+v, want empty", r)
	}
}

func TestTopNNegative(t *testing.T) {
	if _, err := TopN([]List{{1}}, -1); err == nil {
		t.Fatal("want error for negative n")
	}
}

func TestTopNTakesEverythingWhenNExceedsTotal(t *testing.T) {
	lists := []List{{3, 2}, {9}, {}}
	r, err := TopN(lists, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 3 {
		t.Fatalf("Total = %d, want 3", r.Total)
	}
	if r.Take[0] != 2 || r.Take[1] != 1 || r.Take[2] != 0 {
		t.Fatalf("Take = %v, want [2 1 0]", r.Take)
	}
}

func TestTopNEmptyInputs(t *testing.T) {
	r, err := TopN(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 0 {
		t.Fatalf("Total = %d, want 0", r.Total)
	}
	r, err = TopN([]List{{}, {}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 0 {
		t.Fatalf("Total = %d over empty lists, want 0", r.Total)
	}
}

func TestTopNSingleList(t *testing.T) {
	lists := []List{{50, 40, 30, 20, 10}}
	r, err := TopN(lists, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Take[0] != 3 {
		t.Fatalf("Take = %v, want [3]", r.Take)
	}
}

func TestTopNAllTies(t *testing.T) {
	lists := []List{
		{7, 7, 7, 7},
		{7, 7, 7},
		{7, 7},
	}
	r, err := TopN(lists, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 5 {
		t.Fatalf("Total = %d, want 5 under full ties", r.Total)
	}
	for i, take := range r.Take {
		if take > len(lists[i]) {
			t.Fatalf("Take[%d] = %d exceeds list length %d", i, take, len(lists[i]))
		}
	}
}

func TestTopNPartialTiesAtThreshold(t *testing.T) {
	lists := []List{
		{10, 5, 5, 5},
		{9, 5, 5},
		{8, 5},
	}
	// Top 5: {10, 9, 8} plus any two of the 5s.
	r, err := TopN(lists, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 5 {
		t.Fatalf("Total = %d, want 5", r.Total)
	}
	ms := SelectedMultiset(lists, r)
	if ms[10] != 1 || ms[9] != 1 || ms[8] != 1 || ms[5] != 2 {
		t.Fatalf("multiset = %v, want {10:1 9:1 8:1 5:2}", ms)
	}
}

func TestComparatorsBasic(t *testing.T) {
	lists := []List{
		{100, 90, 80},
		{95, 85},
		{99, 50, 10},
	}
	algos := map[string]func([]List, int) (Result, error){
		"mergesort": SelectMergeSort,
		"kway":      SelectKWay,
		"heap":      SelectHeap,
	}
	want, err := TopN(lists, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantMS := SelectedMultiset(lists, want)
	for name, algo := range algos {
		t.Run(name, func(t *testing.T) {
			r, err := algo(lists, 4)
			if err != nil {
				t.Fatal(err)
			}
			if r.Total != 4 {
				t.Fatalf("Total = %d, want 4", r.Total)
			}
			ms := SelectedMultiset(lists, r)
			if len(ms) != len(wantMS) {
				t.Fatalf("multiset size mismatch: %v vs %v", ms, wantMS)
			}
			for v, c := range wantMS {
				if ms[v] != c {
					t.Fatalf("multiset[%d] = %d, want %d", v, ms[v], c)
				}
			}
		})
	}
}

func TestComparatorsNegativeN(t *testing.T) {
	for _, algo := range []func([]List, int) (Result, error){SelectMergeSort, SelectKWay, SelectHeap} {
		if _, err := algo([]List{{1}}, -1); err == nil {
			t.Fatal("want error for negative n")
		}
	}
}

// referenceTopN computes the ground-truth selection multiset by sorting.
func referenceTopN(lists []List, n int) map[Hotness]int {
	var all []Hotness
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	if n > len(all) {
		n = len(all)
	}
	out := make(map[Hotness]int)
	for _, v := range all[:n] {
		out[v]++
	}
	return out
}

func multisetsEqual(a, b map[Hotness]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestPropertyFuseCacheMatchesReference is the core differential property:
// over random inputs (including heavy ties), FuseCache must select exactly
// the n hottest values as a multiset, with per-list takes that are valid
// prefixes.
func TestPropertyFuseCacheMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(8) + 1
		// Small value range provokes ties; occasional large ranges cover
		// the general case.
		valueRange := int64(10)
		if rng.Intn(3) == 0 {
			valueRange = 1_000_000
		}
		lists := genLists(rng, k, 200, valueRange)
		n := rng.Intn(totalLen(lists) + 10)
		r, err := TopN(lists, n)
		if err != nil {
			return false
		}
		wantTotal := n
		if tl := totalLen(lists); wantTotal > tl {
			wantTotal = tl
		}
		if r.Total != wantTotal {
			return false
		}
		for i, take := range r.Take {
			if take < 0 || take > len(lists[i]) {
				return false
			}
		}
		return multisetsEqual(SelectedMultiset(lists, r), referenceTopN(lists, n))
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyAllAlgorithmsAgree cross-checks all four implementations.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lists := genLists(rng, rng.Intn(6)+1, 100, 50)
		n := rng.Intn(totalLen(lists) + 5)
		want := referenceTopN(lists, n)
		for _, algo := range []func([]List, int) (Result, error){TopN, SelectMergeSort, SelectKWay, SelectHeap} {
			r, err := algo(lists, n)
			if err != nil {
				return false
			}
			if !multisetsEqual(SelectedMultiset(lists, r), want) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyThresholdDominance: every unselected item must be at most as
// hot as the coldest selected item — the guarantee that lets batch import
// evict the receiver's tail safely (Section III-D3).
func TestPropertyThresholdDominance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lists := genLists(rng, rng.Intn(6)+1, 150, 100)
		tl := totalLen(lists)
		if tl == 0 {
			return true
		}
		n := rng.Intn(tl) + 1
		r, err := TopN(lists, n)
		if err != nil {
			return false
		}
		threshold, ok := Threshold(lists, r)
		if !ok {
			return n == 0
		}
		for i, l := range lists {
			for _, v := range l[r.Take[i]:] {
				if v > threshold {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPaperScenario mirrors Section IV-A's setting: k−1 retiring lists of
// size < n plus one retained list of size n; select n.
func TestPaperScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const n = 10000
	const k = 10
	lists := make([]List, k)
	for i := 0; i < k-1; i++ {
		l := make(List, n/k)
		for j := range l {
			l[j] = rng.Int63n(1 << 40)
		}
		sort.Slice(l, func(a, b int) bool { return l[a] > l[b] })
		lists[i] = l
	}
	retained := make(List, n)
	for j := range retained {
		retained[j] = rng.Int63n(1 << 40)
	}
	sort.Slice(retained, func(a, b int) bool { return retained[a] > retained[b] })
	lists[k-1] = retained

	r, stats, err := TopNStats(lists, n)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != n {
		t.Fatalf("Total = %d, want %d", r.Total, n)
	}
	if !multisetsEqual(SelectedMultiset(lists, r), referenceTopN(lists, n)) {
		t.Fatal("selection does not match reference")
	}
	// The whole point: comparison work must be tiny relative to n·k.
	if stats.Comparisons >= n {
		t.Fatalf("FuseCache used %d comparisons; expected o(n)=o(%d)", stats.Comparisons, n)
	}
	t.Logf("rounds=%d comparisons=%d (n=%d, k=%d)", stats.Rounds, stats.Comparisons, n, k)
}

// TestComplexityScaling checks the log²(n) shape: multiplying n by 16 must
// grow comparisons far slower than linearly.
func TestComplexityScaling(t *testing.T) {
	comparisons := func(n int) int {
		rng := rand.New(rand.NewSource(7))
		lists := make([]List, 8)
		for i := range lists {
			l := make(List, n)
			for j := range l {
				l[j] = rng.Int63()
			}
			sort.Slice(l, func(a, b int) bool { return l[a] > l[b] })
			lists[i] = l
		}
		_, stats, err := TopNStats(lists, n)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Comparisons
	}
	small := comparisons(1 << 10)
	big := comparisons(1 << 14)
	if big > small*8 {
		t.Fatalf("comparisons grew %d → %d over a 16x n increase; want polylog growth", small, big)
	}
}

func TestSelectHeapExhaustsLists(t *testing.T) {
	lists := []List{{5, 4}, {3}}
	r, err := SelectHeap(lists, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 3 {
		t.Fatalf("Total = %d, want all 3", r.Total)
	}
}

func TestSelectKWayExhaustsLists(t *testing.T) {
	lists := []List{{5}, {}, {3, 1}}
	r, err := SelectKWay(lists, 99)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 3 {
		t.Fatalf("Total = %d, want all 3", r.Total)
	}
}

func TestThresholdEmptySelection(t *testing.T) {
	lists := []List{{1, 2}}
	if _, ok := Threshold(lists, Result{Take: []int{0}}); ok {
		t.Fatal("Threshold reported a value for empty selection")
	}
}
