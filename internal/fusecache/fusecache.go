// Package fusecache implements the ElMem paper's core algorithm (Section
// IV): given k lists of item hotness values, each sorted in MRU order
// (hottest first), select the n hottest items across all lists and report
// how many to take from the head of each list.
//
// FuseCache applies the median-of-medians idea recursively: each round it
// computes the median of the per-list window medians (MOM), counts the
// items at least as hot as the MOM with k binary searches, and then either
// commits that hot prefix to the answer or discards the cold suffixes —
// each round removing at least a constant fraction of the remaining search
// space. Total running time is O(k·log²(n)), versus O(n·log k) for the
// classic heap-based k-way merge, a large win when n >> k (nodes hold
// millions of items; clusters have tens to thousands of nodes).
//
// The package also implements the three comparator algorithms the paper
// discusses — full merge-and-sort O(N log N), plain k-way merge O(n·k),
// and heap k-way merge O(n log k) — used for differential testing and for
// the complexity benchmarks of Section IV-B.
package fusecache

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// Hotness is an item's recency score: larger is hotter. ElMem uses MRU
// timestamps encoded as Unix nanoseconds.
type Hotness = int64

// List is one node's per-slab hotness list in MRU order: descending, the
// head (index 0) is the hottest item.
type List []Hotness

// ErrUnsorted is returned when an input list is not in MRU (descending)
// order.
var ErrUnsorted = errors.New("fusecache: list not in MRU (descending) order")

// Result reports the selection: Take[i] items from the head of list i,
// Total = Σ Take[i] = min(n, total items).
type Result struct {
	// Take holds the per-list head counts.
	Take []int
	// Total is the number of items selected.
	Total int
}

// Stats describes the work one TopN call performed; used by the Section
// IV-B complexity benches.
type Stats struct {
	// Rounds is the number of median-of-medians pruning rounds.
	Rounds int
	// Comparisons counts binary-search probe comparisons.
	Comparisons int
}

// TopN selects the n hottest items across the lists using FuseCache.
// Lists must be in MRU (descending) order; pass Validate first when inputs
// are untrusted. n < 0 is an error; n = 0 selects nothing; n beyond the
// total item count selects everything.
func TopN(lists []List, n int) (Result, error) {
	r, _, err := TopNStats(lists, n)
	return r, err
}

// TopNStats is TopN plus instrumentation.
func TopNStats(lists []List, n int) (Result, Stats, error) {
	var stats Stats
	if n < 0 {
		return Result{}, stats, fmt.Errorf("fusecache: negative n %d", n)
	}
	k := len(lists)
	take := make([]int, k)
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if n >= total {
		for i, l := range lists {
			take[i] = len(l)
		}
		return Result{Take: take, Total: total}, stats, nil
	}
	if n == 0 || k == 0 {
		return Result{Take: take}, stats, nil
	}

	// Per-list windows: items before sel are committed-selected, items at
	// or after rej are committed-rejected.
	sel := make([]int, k)
	rej := make([]int, k)
	for i, l := range lists {
		rej[i] = len(l)
	}
	need := n

	medians := make([]Hotness, 0, k)
	for need > 0 {
		stats.Rounds++
		// Gather window medians of active lists.
		medians = medians[:0]
		windowTotal := 0
		for i, l := range lists {
			w := rej[i] - sel[i]
			if w <= 0 {
				continue
			}
			windowTotal += w
			medians = append(medians, l[sel[i]+w/2])
		}
		if windowTotal == 0 {
			break // exhausted; need > remaining items (guarded above, but be safe)
		}
		if windowTotal <= need {
			// Everything left is selected.
			for i := range lists {
				sel[i] = rej[i]
			}
			need -= windowTotal
			break
		}
		mom := medianOf(medians)

		// Count, per list, the window prefix at least as hot as the MOM.
		hotter := 0 // Σ p_i: window items >= mom
		progressed := false
		for i, l := range lists {
			w := rej[i] - sel[i]
			if w <= 0 {
				continue
			}
			p := searchColder(l[sel[i]:rej[i]], mom, &stats)
			hotter += p
			if p < w {
				progressed = true
			}
		}

		switch {
		case hotter == need:
			// Exactly the items >= mom are the answer.
			for i, l := range lists {
				if rej[i]-sel[i] > 0 {
					sel[i] += searchColder(l[sel[i]:rej[i]], mom, &stats)
				}
			}
			need = 0
		case hotter < need:
			// Commit every item >= mom, keep searching the colder space.
			for i, l := range lists {
				if rej[i]-sel[i] > 0 {
					sel[i] += searchColder(l[sel[i]:rej[i]], mom, &stats)
				}
			}
			need -= hotter
		default: // hotter > need
			if progressed {
				// Discard everything strictly colder than mom.
				for i, l := range lists {
					if rej[i]-sel[i] > 0 {
						rej[i] = sel[i] + searchColder(l[sel[i]:rej[i]], mom, &stats)
					}
				}
				continue
			}
			// Tie plateau: every window item >= mom, so rejecting items
			// strictly colder than mom cannot shrink the windows. Split the
			// windows into strictly-hotter items (count Q) and ties (== mom).
			strictly := make([]int, k)
			q := 0
			for i, l := range lists {
				if rej[i]-sel[i] <= 0 {
					continue
				}
				strictly[i] = searchColderOrEqual(l[sel[i]:rej[i]], mom, &stats)
				q += strictly[i]
			}
			if q >= need {
				// The answer lies entirely within the strictly-hotter items:
				// discard every tie. At least one tie exists (the MOM
				// itself), so this always progresses.
				for i := range lists {
					if rej[i]-sel[i] > 0 {
						rej[i] = sel[i] + strictly[i]
					}
				}
				continue
			}
			// Select all strictly-hotter items, then fill the remainder
			// from the ties arbitrarily (they are interchangeable).
			for i := range lists {
				if rej[i]-sel[i] > 0 {
					sel[i] += strictly[i]
				}
			}
			need -= q
			for i := range lists {
				if need <= 0 {
					break
				}
				ties := rej[i] - sel[i]
				if ties > need {
					ties = need
				}
				sel[i] += ties
				need -= ties
			}
		}
	}

	out := Result{Take: sel}
	for _, t := range sel {
		out.Total += t
	}
	return out, stats, nil
}

// searchColder returns the index of the first item in the descending
// window strictly colder than v (i.e., the count of items >= v).
func searchColder(window List, v Hotness, stats *Stats) int {
	return sort.Search(len(window), func(i int) bool {
		stats.Comparisons++
		return window[i] < v
	})
}

// searchColderOrEqual returns the count of items strictly hotter than v.
func searchColderOrEqual(window List, v Hotness, stats *Stats) int {
	return sort.Search(len(window), func(i int) bool {
		stats.Comparisons++
		return window[i] <= v
	})
}

// medianOf returns the median of values (lower median for even counts).
// It sorts a copy: k is small (node count), so O(k log k) here is noise.
func medianOf(values []Hotness) Hotness {
	tmp := make([]Hotness, len(values))
	copy(tmp, values)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[len(tmp)/2]
}

// SelectMergeSort is the naive comparator (Section IV): concatenate all
// lists, sort descending, cut at n. O(N log N).
func SelectMergeSort(lists []List, n int) (Result, error) {
	if n < 0 {
		return Result{}, fmt.Errorf("fusecache: negative n %d", n)
	}
	type tagged struct {
		v    Hotness
		list int
	}
	var all []tagged
	for li, l := range lists {
		for _, v := range l {
			all = append(all, tagged{v: v, list: li})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if n > len(all) {
		n = len(all)
	}
	take := make([]int, len(lists))
	for _, t := range all[:n] {
		take[t.list]++
	}
	return Result{Take: take, Total: n}, nil
}

// SelectKWay is the plain k-way merge comparator: n rounds, each scanning
// all k heads. O(n·k).
func SelectKWay(lists []List, n int) (Result, error) {
	if n < 0 {
		return Result{}, fmt.Errorf("fusecache: negative n %d", n)
	}
	take := make([]int, len(lists))
	total := 0
	for total < n {
		best := -1
		var bestV Hotness
		for i, l := range lists {
			if take[i] >= len(l) {
				continue
			}
			if v := l[take[i]]; best < 0 || v > bestV {
				best, bestV = i, v
			}
		}
		if best < 0 {
			break
		}
		take[best]++
		total++
	}
	return Result{Take: take, Total: total}, nil
}

// headHeap is a max-heap over list heads for SelectHeap.
type headHeap struct {
	lists []List
	pos   []int
	order []int // heap of list indices
}

func (h *headHeap) Len() int { return len(h.order) }
func (h *headHeap) Less(i, j int) bool {
	a, b := h.order[i], h.order[j]
	return h.lists[a][h.pos[a]] > h.lists[b][h.pos[b]]
}
func (h *headHeap) Swap(i, j int)      { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *headHeap) Push(x interface{}) { h.order = append(h.order, x.(int)) }
func (h *headHeap) Pop() interface{} {
	last := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return last
}

// SelectHeap is the heap-based k-way merge comparator, the best previously
// known approach the paper compares against. O(n·log k).
func SelectHeap(lists []List, n int) (Result, error) {
	if n < 0 {
		return Result{}, fmt.Errorf("fusecache: negative n %d", n)
	}
	h := &headHeap{lists: lists, pos: make([]int, len(lists))}
	for i, l := range lists {
		if len(l) > 0 {
			h.order = append(h.order, i)
		}
	}
	heap.Init(h)
	take := make([]int, len(lists))
	total := 0
	for total < n && h.Len() > 0 {
		i := h.order[0]
		take[i]++
		h.pos[i]++
		total++
		if h.pos[i] >= len(lists[i]) {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
	}
	return Result{Take: take, Total: total}, nil
}

// SelectedMultiset expands a Result back into the multiset of selected
// hotness values; differential tests compare algorithms with it because
// tie values may be taken from different lists.
func SelectedMultiset(lists []List, r Result) map[Hotness]int {
	out := make(map[Hotness]int)
	for i, t := range r.Take {
		for _, v := range lists[i][:t] {
			out[v]++
		}
	}
	return out
}

// Threshold returns the coldest selected hotness value, or false when
// nothing is selected. By correctness of the selection, every unselected
// item is at most this hot.
func Threshold(lists []List, r Result) (Hotness, bool) {
	found := false
	var coldest Hotness
	for i, t := range r.Take {
		if t == 0 {
			continue
		}
		v := lists[i][t-1] // tail of the taken prefix is its coldest
		if !found || v < coldest {
			coldest, found = v, true
		}
	}
	return coldest, found
}
