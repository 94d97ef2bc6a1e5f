package budget

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCentsString(t *testing.T) {
	cases := map[Cents]string{
		0:     "$0.00",
		5:     "$0.05",
		123:   "$1.23",
		10000: "$100.00",
		-42:   "-$0.42",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(c), got, want)
		}
	}
}

func TestSpendWithinLimit(t *testing.T) {
	a := NewAccount(100)
	if a.Limit() != 100 {
		t.Fatalf("limit = %v", a.Limit())
	}
	if err := a.Spend(60); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(41); err != ErrExhausted {
		t.Fatalf("overspend err = %v", err)
	}
	if err := a.Spend(40); err != nil {
		t.Fatal(err)
	}
	if a.Spent() != 100 || a.Remaining() != 0 {
		t.Fatalf("spent=%v remaining=%v", a.Spent(), a.Remaining())
	}
}

func TestUnlimitedAccount(t *testing.T) {
	a := NewAccount(0)
	if err := a.Spend(1 << 40); err != nil {
		t.Fatal(err)
	}
	if a.Remaining() <= 0 {
		t.Fatal("unlimited account must always have remaining budget")
	}
}

func TestNegativeAmounts(t *testing.T) {
	a := NewAccount(10)
	if err := a.Spend(-1); err == nil {
		t.Error("negative spend accepted")
	}
	a.Refund(-5) // no-op
	if a.Spent() != 0 || a.Remaining() != 10 {
		t.Error("negative refund mutated account")
	}
}

func TestConcurrentSpendNeverExceedsLimit(t *testing.T) {
	a := NewAccount(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = a.Spend(1)
			}
		}()
	}
	wg.Wait()
	if a.Spent() != 1000 {
		t.Fatalf("spent = %v, want exactly the limit", a.Spent())
	}
}

// Property: spent + remaining == limit for limited accounts, and spend
// stays within [0, limit], under any interleaving of spends and
// refunds.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewAccount(500)
		for _, op := range ops {
			amt := Cents(op % 97)
			if op%2 == 0 {
				_ = a.Spend(amt)
			} else {
				a.Refund(amt)
			}
			if a.Spent()+a.Remaining() != 500 || a.Spent() < 0 || a.Spent() > 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
