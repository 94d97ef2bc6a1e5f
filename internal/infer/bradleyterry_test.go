package infer

import (
	"math/rand"
	"slices"
	"testing"
)

// rankOf is the Rank of an ordering listing order's keys first to last,
// aligned with keys; keys it does not list are unranked (−1).
func rankOf(keys, order []string) []int {
	r := make([]int, len(keys))
	for i, k := range keys {
		r[i] = slices.Index(order, k)
	}
	return r
}

func TestConsensusRecoversPlantedOrder(t *testing.T) {
	keys := []string{"c", "a", "d", "b", "e"}
	planted := []string{"a", "b", "c", "d", "e"}
	orderings := []Ordering{
		{Worker: "w1", Rank: rankOf(keys, planted)},
		{Worker: "w2", Rank: rankOf(keys, planted)},
		// w3 swaps one adjacent pair; the majority should still win.
		{Worker: "w3", Rank: rankOf(keys, []string{"a", "b", "d", "c", "e"})},
	}
	var bt BradleyTerry
	got := bt.Consensus(len(keys), orderings)
	for i, k := range planted {
		if keys[got[i]] != k {
			t.Fatalf("consensus = %v, want %v", got, planted)
		}
	}
}

func TestConsensusDeterministicOnNoVotes(t *testing.T) {
	var bt BradleyTerry
	got := bt.Consensus(3, nil)
	// No comparisons: all strengths stay 1, ties break by input order.
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("no-vote consensus = %v, want input order", got)
	}
	if bt.Consensus(0, nil) != nil {
		t.Fatal("no items should return nil")
	}
}

func TestStrengthsOrdering(t *testing.T) {
	// Round-robin: 0 beats everyone twice, 2 loses to everyone twice,
	// 1 splits. Strengths must come out strictly ordered.
	wins := map[[2]int]float64{
		{0, 1}: 2, {0, 2}: 2,
		{1, 2}: 2,
	}
	var bt BradleyTerry
	s := bt.Strengths(3, func(i, j int) float64 { return wins[[2]int{i, j}] })
	if !(s[0] > s[1] && s[1] > s[2]) {
		t.Fatalf("strengths not ordered: %v", s)
	}
}

// TestStrengthsMatchesFreshBuffers pins Strengths' arithmetic: the fit
// that alternates two buffers returns bit-identical strengths to one
// that allocates a fresh slice every MM round.
func TestStrengthsMatchesFreshBuffers(t *testing.T) {
	ref := func(bt BradleyTerry, n int, wins func(i, j int) float64) []float64 {
		s := make([]float64, n)
		w := make([]float64, n)
		pair := make([]float64, n*n)
		eps := bt.smooth()
		for i := 0; i < n; i++ {
			s[i] = 1
			for j := 0; j < n; j++ {
				if i != j && (wins(i, j) > 0 || wins(j, i) > 0) {
					pair[i*n+j] = wins(i, j) + eps
					w[i] += pair[i*n+j]
				}
			}
		}
		for iter := 0; iter < bt.iters(); iter++ {
			next := make([]float64, n)
			var sum float64
			for i := 0; i < n; i++ {
				denom := 0.0
				for j := 0; j < n; j++ {
					if nij := pair[i*n+j] + pair[j*n+i]; i != j && nij > 0 {
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
			scale := float64(n) / sum
			for i := range next {
				next[i] *= scale
			}
			s = next
		}
		return s
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		wins := make([]float64, n*n)
		for i := range wins {
			if rng.Intn(3) > 0 {
				wins[i] = float64(rng.Intn(4))
			}
		}
		bt := BradleyTerry{Iters: rng.Intn(40)}
		f := func(i, j int) float64 { return wins[i*n+j] }
		if got, want := bt.Strengths(n, f), ref(bt, n, f); !slices.Equal(got, want) {
			t.Fatalf("trial %d: strengths %v, want %v", trial, got, want)
		}
	}
}

func TestPairAgreementSeparatesJunkFromHonest(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	consensus := []int{0, 1, 2, 3, 4}
	honest := Ordering{Worker: "h", Rank: rankOf(keys, keys)}
	junk := Ordering{Worker: "j", Rank: rankOf(keys, []string{"e", "d", "c", "b", "a"})}

	agreed, total := PairAgreement(consensus, honest)
	if total != 10 || agreed != 10 {
		t.Fatalf("honest worker: %d/%d, want 10/10", agreed, total)
	}
	agreed, total = PairAgreement(consensus, junk)
	if total != 10 || agreed != 0 {
		t.Fatalf("reversed worker: %d/%d, want 0/10", agreed, total)
	}

	// Partial rankings only count pairs present on both sides.
	partial := Ordering{Worker: "p", Rank: rankOf(keys, []string{"a", "c"})}
	agreed, total = PairAgreement(consensus, partial)
	if total != 1 || agreed != 1 {
		t.Fatalf("partial ranking: %d/%d, want 1/1", agreed, total)
	}
}
