// Package hit models Human Intelligence Tasks: the unit of work Qurk
// posts to the (simulated) MTurk marketplace. It mirrors the paper's HIT
// Compiler: a task (or a batch of tasks) is compiled into an HTML form a
// turker fills out, and the submitted form is decoded back into typed
// answer values keyed by the task that asked the question.
package hit

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// Item is one batched sub-question inside a HIT. Key routes the answer
// back to the originating task; Args are the values rendered for the
// worker (e.g. the company name, or the two images of a join pair).
//
// Task and Prompt are set when several *different* operators share one
// HIT (the paper's operator-grouping optimization: "generate HITs from a
// set of operators, e.g. grouping multiple filter operations over the
// same tuple"); empty values inherit the HIT-level Task and Question.
type Item struct {
	Key    string
	Args   []relation.Value
	Task   string
	Prompt string
}

// EffectiveTask returns the item's task, defaulting to the HIT's.
func (h *HIT) EffectiveTask(it Item) string {
	if it.Task != "" {
		return it.Task
	}
	return h.Task
}

// HIT is a compiled human task, possibly batching several Items.
//
// For JoinColumns HITs the Left and Right columns are rendered instead of
// Items; the implied sub-questions are all Left×Right pairs, keyed by
// PairKey.
//
// A posted HIT is immutable. The marketplace, the backends and the worker
// pools keep reading it after Post returns — the simulated crowd reads a
// HIT's items only when an assignment completes — so neither the poster
// nor a reader may change it, its Items or their Args.
type HIT struct {
	ID          string
	Task        string // task (UDF) name
	Type        qlang.TaskType
	Title       string
	Question    string // rendered instruction text
	Response    qlang.Response
	Items       []Item
	Left, Right []Item // JoinColumns layout
	RewardCents int64
	Assignments int
	// GroupKeys lists the task keys of *grouped* operators sharing this
	// HIT (several predicates asked about one tuple); empty otherwise.
	GroupKeys []string
}

// PairKey builds the routing key for one cell of a JoinColumns grid.
func PairKey(leftKey, rightKey string) string {
	return leftKey + "\x1f" + rightKey
}

// Keys returns every routing key this HIT will answer: item keys, or all
// pair keys for a JoinColumns HIT.
func (h *HIT) Keys() []string {
	if h.Response.Kind == qlang.ResponseJoinColumns {
		keys := make([]string, 0, len(h.Left)*len(h.Right))
		for _, l := range h.Left {
			for _, r := range h.Right {
				keys = append(keys, PairKey(l.Key, r.Key))
			}
		}
		return keys
	}
	keys := make([]string, len(h.Items))
	for i, it := range h.Items {
		keys[i] = it.Key
	}
	return keys
}

// QuestionCount returns how many logical questions the HIT answers —
// the batching leverage the Task Manager gets from one worker payment.
// It is called per completed assignment, so unlike Keys it allocates
// nothing.
func (h *HIT) QuestionCount() int {
	if h.Response.Kind == qlang.ResponseJoinColumns {
		return len(h.Left) * len(h.Right)
	}
	return len(h.Items)
}

// Answers maps routing keys to the typed value a worker produced.
// For form/tuple tasks the value is a KindTuple; for filters and join
// pairs a KindBool; for ratings a KindInt; for order responses a KindInt
// rank (0 = first).
type Answers struct {
	WorkerID string
	Values   map[string]relation.Value
}

// RenderText substitutes a task's %s placeholders with the item's
// argument values, mirroring the paper's "simple substitution language".
// Each text argument names a parameter, matched case-insensitively (the
// last of two same-named parameters wins); a name without a parameter
// or an argument renders as "?".
//
// There are two paths with one result. When every % in the template
// starts a %s and there is exactly one %s per text argument — every
// task text the parser accepts in practice — the literal pieces and the
// values are written into one pre-grown builder. Any other template
// (%d, %%, a trailing %, a placeholder count that differs from the
// argument count) goes through fmt, which spells out its verbs and
// EXTRA/MISSING marks.
func RenderText(template string, textArgs []string, params []qlang.Param, args []relation.Value) string {
	if !strings.Contains(template, "%s") {
		return template
	}
	if strings.Count(template, "%") != len(textArgs) || strings.Count(template, "%s") != len(textArgs) {
		subs := make([]interface{}, 0, len(textArgs))
		for _, name := range textArgs {
			subs = append(subs, textArg(name, params, args))
		}
		return fmt.Sprintf(strings.ReplaceAll(template, "%s", "%v"), subs...)
	}
	var subsBuf [4]string
	subs := subsBuf[:0]
	n := len(template) - 2*len(textArgs)
	for _, name := range textArgs {
		sub := textArg(name, params, args)
		subs = append(subs, sub)
		n += len(sub)
	}
	var b strings.Builder
	b.Grow(n)
	for _, sub := range subs {
		i := strings.Index(template, "%s")
		b.WriteString(template[:i])
		b.WriteString(sub)
		template = template[i+2:]
	}
	b.WriteString(template)
	return b.String()
}

// textArg renders the argument a text argument names: the value of the
// last parameter whose name matches case-insensitively, or "?".
func textArg(name string, params []qlang.Param, args []relation.Value) string {
	for i := len(params) - 1; i >= 0; i-- {
		if lowerEqual(params[i].Name, name) {
			if i >= len(args) {
				return "?"
			}
			return displayValue(args[i])
		}
	}
	return "?"
}

// lowerEqual reports whether strings.ToLower(a) == strings.ToLower(b)
// without building either: both lower-case rune by rune (an invalid
// byte reads as utf8.RuneError, as it does in ToLower).
func lowerEqual(a, b string) bool {
	for a != "" && b != "" {
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if ra != rb && unicode.ToLower(ra) != unicode.ToLower(rb) {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return a == b
}

func displayValue(v relation.Value) string {
	switch v.Kind() {
	case relation.KindImage:
		return v.Str()
	case relation.KindList:
		parts := make([]string, v.Len())
		for i, e := range v.List() {
			parts[i] = displayValue(e)
		}
		return strings.Join(parts, ", ")
	default:
		return v.String()
	}
}

// Validate checks structural invariants before posting.
func (h *HIT) Validate() error {
	if h.ID == "" {
		return fmt.Errorf("hit: missing ID")
	}
	if h.Task == "" {
		return fmt.Errorf("hit %s: missing task name", h.ID)
	}
	if h.Assignments < 1 {
		return fmt.Errorf("hit %s: assignments %d < 1", h.ID, h.Assignments)
	}
	if h.RewardCents < 0 {
		return fmt.Errorf("hit %s: negative reward", h.ID)
	}
	if h.Response.Kind == qlang.ResponseJoinColumns {
		if len(h.Left) == 0 || len(h.Right) == 0 {
			return fmt.Errorf("hit %s: JoinColumns needs both columns populated", h.ID)
		}
		if len(h.Items) != 0 {
			return fmt.Errorf("hit %s: JoinColumns must not also carry Items", h.ID)
		}
		return nil
	}
	if len(h.Items) == 0 {
		return fmt.Errorf("hit %s: no items", h.ID)
	}
	seen := make(map[string]bool, len(h.Items))
	for _, it := range h.Items {
		if it.Key == "" {
			return fmt.Errorf("hit %s: item with empty key", h.ID)
		}
		if seen[it.Key] {
			return fmt.Errorf("hit %s: duplicate item key %q", h.ID, it.Key)
		}
		seen[it.Key] = true
	}
	return nil
}
