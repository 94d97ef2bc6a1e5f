// Package budget tracks monetary spend for Qurk queries. All amounts are
// integer cents — never floats — matching MTurk's $0.01 granularity.
package budget

import (
	"errors"
	"fmt"
	"sync"
)

// Cents is an amount of money in US cents.
type Cents int64

// String renders "$1.23".
func (c Cents) String() string {
	sign := ""
	if c < 0 {
		sign = "-"
		c = -c
	}
	return fmt.Sprintf("%s$%d.%02d", sign, c/100, c%100)
}

// ErrExhausted is returned by Spend when the budget cannot cover a charge.
var ErrExhausted = errors.New("budget: exhausted")

// Account is a concurrency-safe budget with a hard limit.
// Limit 0 means unlimited.
type Account struct {
	mu    sync.Mutex
	limit Cents
	spent Cents
}

// NewAccount creates an account with the given limit (0 = unlimited).
func NewAccount(limit Cents) *Account {
	return &Account{limit: limit}
}

// Limit returns the account limit (0 = unlimited).
func (a *Account) Limit() Cents {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limit
}

// Spent returns the total charged so far.
func (a *Account) Spent() Cents {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining returns limit - spent, or a very large value when
// unlimited.
func (a *Account) Remaining() Cents {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.remainingLocked()
}

func (a *Account) remainingLocked() Cents {
	if a.limit == 0 {
		return Cents(1<<62 - 1)
	}
	return a.limit - a.spent
}

// Refund returns previously spent money (e.g. the uncompleted
// assignments of a HIT disposed by query cancellation). Spend never
// goes negative.
func (a *Account) Refund(amount Cents) {
	if amount <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent -= amount
	if a.spent < 0 {
		a.spent = 0
	}
}

// Spend charges amount, failing without side effects when the remaining
// budget cannot cover it.
func (a *Account) Spend(amount Cents) error {
	if amount < 0 {
		return fmt.Errorf("budget: negative spend %d", amount)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit != 0 && a.remainingLocked() < amount {
		return ErrExhausted
	}
	a.spent += amount
	return nil
}
