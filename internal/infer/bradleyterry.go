package infer

import "sort"

// Ordering is one worker's submitted permutation of a comparison
// group: Rank holds one entry per item of the group, the position of
// item i at Rank[i] (lower = earlier), or −1 for an item the worker did
// not rank.
type Ordering struct {
	Worker string
	Rank   []int
}

// BradleyTerry fits pairwise item strengths from win counts by the MM
// (minorization–maximization) algorithm: the maximum-likelihood model
// where item i beats item j with probability s_i/(s_i+s_j). Order
// responses already arrive as pairwise win matrices (internal/rank
// folds votes that way), so the fit extends answer inference — and
// per-worker quality scoring — to ranking tasks.
type BradleyTerry struct {
	// Iters bounds the MM rounds (0 = 30).
	Iters int
	// Smooth is the virtual win added in both directions of every
	// compared pair, keeping strengths finite when an item sweeps or
	// is swept (0 = 0.1).
	Smooth float64
}

func (bt BradleyTerry) iters() int {
	if bt.Iters <= 0 {
		return 30
	}
	return bt.Iters
}

func (bt BradleyTerry) smooth() float64 {
	if bt.Smooth <= 0 {
		return 0.1
	}
	return bt.Smooth
}

// Strengths fits strengths for n items from wins(i, j) = how many
// rankings placed i before j. Pairs with no comparisons either way are
// ignored. Strengths are normalized to mean 1; ties in downstream
// ordering must break by input order for determinism.
func (bt BradleyTerry) Strengths(n int, wins func(i, j int) float64) []float64 {
	s := make([]float64, n)
	w := make([]float64, n)      // total (smoothed) wins per item
	pair := make([]float64, n*n) // smoothed wins[i][j]
	eps := bt.smooth()
	for i := 0; i < n; i++ {
		s[i] = 1
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if wins(i, j) > 0 || wins(j, i) > 0 {
				pair[i*n+j] = wins(i, j) + eps
				w[i] += pair[i*n+j]
			}
		}
	}
	// The MM rounds alternate between s and next: each round reads s and
	// writes every entry of next, then the two swap.
	next := make([]float64, n)
	for iter := 0; iter < bt.iters(); iter++ {
		var sum float64
		for i := 0; i < n; i++ {
			denom := 0.0
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				nij := pair[i*n+j] + pair[j*n+i]
				if nij > 0 {
					denom += nij / (s[i] + s[j])
				}
			}
			if denom == 0 || w[i] == 0 {
				next[i] = s[i]
			} else {
				next[i] = w[i] / denom
			}
			sum += next[i]
		}
		if sum == 0 {
			break
		}
		// Normalize to mean 1 so the iteration cannot drift to 0/∞.
		scale := float64(n) / sum
		for i := range next {
			next[i] *= scale
		}
		s, next = next, s
	}
	return s
}

// Consensus fits strengths over the orderings' pairwise wins among n
// items and returns the item indices strongest-first (the
// maximum-likelihood order). Ties break by input order, matching
// internal/rank's convention.
func (bt BradleyTerry) Consensus(n int, orderings []Ordering) []int {
	if n <= 0 {
		return nil
	}
	wins := make([]float64, n*n)
	for _, o := range orderings {
		for i := 0; i < n; i++ {
			ri := o.Rank[i]
			if ri < 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if rj := o.Rank[j]; i != j && rj >= 0 && ri < rj {
					wins[i*n+j]++
				}
			}
		}
	}
	s := bt.Strengths(n, func(i, j int) float64 { return wins[i*n+j] })
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	return idx
}

// PairAgreement counts how many of the consensus order's pairs an
// ordering agrees with; consensus holds item indices, strongest first,
// as Consensus returns them. A worker submitting uniform-junk
// permutations agrees on about half; an honest worker on nearly all —
// the signal reputation tracking uses for Order responses. Pairs the
// ordering did not rank on both sides are skipped; tied positions count
// as disagreement (a permutation has no ties).
func PairAgreement(consensus []int, o Ordering) (agreed, total int) {
	for i := 0; i < len(consensus); i++ {
		ri := o.Rank[consensus[i]]
		if ri < 0 {
			continue
		}
		for j := i + 1; j < len(consensus); j++ {
			rj := o.Rank[consensus[j]]
			if rj < 0 {
				continue
			}
			total++
			if ri < rj {
				agreed++
			}
		}
	}
	return agreed, total
}
