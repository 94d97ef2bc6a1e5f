package crowd

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hit"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// gridHIT builds an n×n JoinColumns HIT.
func gridHIT(n int) *hit.HIT {
	h := &hit.HIT{
		ID: "grid", Task: "samePerson", Type: qlang.TaskJoinPredicate,
		Question: "match", RewardCents: 1, Assignments: 1,
		Response: qlang.Response{Kind: qlang.ResponseJoinColumns, LeftLabel: "L", RightLabel: "R"},
	}
	for i := 0; i < n; i++ {
		h.Left = append(h.Left, hit.Item{Args: []relation.Value{relation.NewImage(fmt.Sprintf("cat-%d.png", i))}})
		h.Right = append(h.Right, hit.Item{Args: []relation.Value{relation.NewImage(fmt.Sprintf("cat-%d.jpg", i))}})
	}
	return h
}

// TestClaimAnswerAllocs gates the crowd's per-assignment cost: one claim
// plus its answer allocates the sheet and the claim's closure (and, for
// a grid, the argument slice the oracle reads), however many questions
// the HIT asks. Building a keyed answer per question instead costs a
// map and, for a grid, one pair-key string per cell.
func TestClaimAnswerAllocs(t *testing.T) {
	oracle := OracleFunc(func(task string, args []relation.Value) relation.Value {
		return relation.NewBool(strings.HasPrefix(args[0].Str(), "cat"))
	})
	cases := []struct {
		name string
		h    *hit.HIT
		max  float64
	}{
		{"batch of 5", ynHIT("batch", "cat1", "dog1", "cat2", "dog2", "cat3"), 2},
		{"5x5 grid", gridHIT(5), 4},
	}
	for _, tc := range cases {
		p := NewPool(Config{Seed: 3, AbandonRate: 1e-12}, oracle)
		allocs := testing.AllocsPerRun(200, func() {
			c, ok := p.Claim(tc.h, 0)
			if !ok {
				t.Fatal("no worker")
			}
			ans, err := c.Answer()
			if err != nil || len(ans.Values) != tc.h.QuestionCount() {
				t.Fatalf("answer = %v, %v", ans, err)
			}
		})
		t.Logf("%s: %.1f", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: one claim and its answer allocate %.1f times, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
