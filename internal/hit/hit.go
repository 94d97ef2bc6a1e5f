// Package hit models Human Intelligence Tasks: the unit of work Qurk
// posts to the (simulated) MTurk marketplace. It mirrors the paper's HIT
// Compiler: a task (or a batch of tasks) is compiled into an HTML form a
// turker fills out, and the submitted form is decoded back into one
// worker's answer sheet: one typed value per question, by the
// question's position in the HIT. The position is a question's only
// name, in the form's inputs and on the HTTP wire alike.
package hit

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// Item is one batched sub-question inside a HIT, or one row of a
// JoinColumns column. Args are the values rendered for the worker (e.g.
// the company name, or the image of a celebrity).
//
// Task and Prompt are set when several *different* operators share one
// HIT (the paper's operator-grouping optimization: "generate HITs from a
// set of operators, e.g. grouping multiple filter operations over the
// same tuple"); empty values inherit the HIT-level Task and Question.
type Item struct {
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
// Its questions are its Items, in order: question i is Items[i]. For
// JoinColumns HITs the Left and Right columns are rendered instead of
// Items; the implied questions are all Left×Right pairs, row-major:
// cell (l, r) is question l*len(Right)+r.
//
// A posted HIT is immutable. The marketplace, the backends and the worker
// pools keep reading it after Post returns — the simulated crowd reads a
// HIT's items at every claim, and the marketplace checks each answer
// sheet against it — so neither the poster nor a reader may change it,
// its Items or their Args.
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
}

// QuestionCount returns how many logical questions the HIT answers —
// the batching leverage the Task Manager gets from one worker payment.
func (h *HIT) QuestionCount() int {
	if h.Response.Kind == qlang.ResponseJoinColumns {
		return len(h.Left) * len(h.Right)
	}
	return len(h.Items)
}

// Answers is one worker's answer sheet for a HIT: Values[i] is the
// typed value the worker gave the HIT's question i (see HIT for the
// question order). For form/tuple tasks the value is a KindTuple; for
// filters and join pairs a KindBool; for ratings a KindInt; for order
// responses a KindInt rank (0 = first).
//
// A sheet answers every question: CheckAnswers holds it to
// QuestionCount values. Every answerer fills one, and the Task Manager
// keeps the sheets as the only copy of a HIT's answers until it
// finalizes.
type Answers struct {
	WorkerID string
	Values   []relation.Value
}

// CheckAnswers reports an error unless ans answers every question of h
// and no more. Sheets from outside the engine — an external
// submission, a pluggable worker pool, a remote service — pass it
// before they reach the Task Manager.
func (h *HIT) CheckAnswers(ans Answers) error {
	if n := h.QuestionCount(); len(ans.Values) != n {
		return fmt.Errorf("hit %s: %d answers for %d questions", h.ID, len(ans.Values), n)
	}
	return nil
}

// RankPositions replaces each score in vals with its rank position
// 0..n-1, as the Order form requires: ascending score, equal scores in
// question order — the order a stable sort by < gives, NaNs included.
func RankPositions(vals []relation.Value) {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		fa, fb := vals[a].Float(), vals[b].Float()
		if fa < fb {
			return -1
		}
		if fb < fa {
			return 1
		}
		return 0
	})
	for rank, i := range order {
		vals[i] = relation.NewInt(int64(rank))
	}
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
	return nil
}
