// Package binpack solves SeeDB's Optimal Grouping problem (Problem 4.1 in
// the paper): partition dimension attributes into groups such that any
// multi-attribute GROUP BY over one group stays under the engine's memory
// budget.
//
// The reduction (Section 4.1): each attribute a_i becomes an item of
// weight log|a_i| and the bin capacity is log B, where |a_i| is the
// attribute's distinct-value count and B the budget on distinct groups.
// Packing items into bins then bounds Π|a_i| ≤ B per bin. The paper (and
// this package) uses the classic first-fit heuristic; first-fit-decreasing
// is provided as well since it usually packs tighter.
package binpack

import (
	"math"
	"sort"
)

// Item is one attribute to pack.
type Item struct {
	// ID is an opaque caller identifier (e.g. the attribute's index).
	ID int
	// Weight is the item's size; for SeeDB this is log(distinct count).
	Weight float64
}

// Bin is one packed group of items.
type Bin struct {
	Items  []Item
	Weight float64 // sum of item weights
}

// FirstFit packs items into bins of the given capacity using the
// first-fit heuristic: each item goes into the first bin it fits in, or
// opens a new bin. Items whose weight exceeds the capacity get singleton
// bins (SeeDB must still execute a single-attribute GROUP BY even when
// one attribute alone overflows the budget). Items are processed in the
// order given, matching the paper's use of "the standard first-fit
// algorithm".
func FirstFit(items []Item, capacity float64) []Bin {
	var bins []Bin
	for _, it := range items {
		if it.Weight > capacity {
			bins = append(bins, Bin{Items: []Item{it}, Weight: it.Weight})
			continue
		}
		placed := false
		for i := range bins {
			// Oversized singleton bins never accept more items.
			if bins[i].Weight > capacity {
				continue
			}
			if bins[i].Weight+it.Weight <= capacity {
				bins[i].Items = append(bins[i].Items, it)
				bins[i].Weight += it.Weight
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, Bin{Items: []Item{it}, Weight: it.Weight})
		}
	}
	return bins
}

// FirstFitDecreasing sorts items by descending weight before first-fit,
// the classic 11/9·OPT + 1 heuristic. Ties break on ascending ID so the
// packing is deterministic.
func FirstFitDecreasing(items []Item, capacity float64) []Bin {
	sorted := append([]Item(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Weight != sorted[j].Weight {
			return sorted[i].Weight > sorted[j].Weight
		}
		return sorted[i].ID < sorted[j].ID
	})
	return FirstFit(sorted, capacity)
}

// PackAttributes is the SeeDB-facing entry point: given per-attribute
// distinct-value counts and a budget B on distinct groups per query, it
// returns groups of attribute indices such that the product of distinct
// counts within each group is at most B (except unavoidable singletons
// whose own cardinality exceeds B). Distinct counts below 1 are treated
// as 1.
func PackAttributes(cardinalities []int, budget int) [][]int {
	if budget < 1 {
		budget = 1
	}
	items := make([]Item, len(cardinalities))
	for i, d := range cardinalities {
		if d < 1 {
			d = 1
		}
		items[i] = Item{ID: i, Weight: math.Log(float64(d))}
	}
	bins := FirstFitDecreasing(items, math.Log(float64(budget)))
	out := make([][]int, len(bins))
	for i, b := range bins {
		ids := make([]int, len(b.Items))
		for j, it := range b.Items {
			ids[j] = it.ID
		}
		sort.Ints(ids)
		out[i] = ids
	}
	return out
}
