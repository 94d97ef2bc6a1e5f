// Package experiments regenerates the paper's evaluation artifacts.
// The demo paper has no numbered result tables; its artifacts are the
// dashboard metrics of Figure 2, the join-interface design space of
// Figure 3, the two demo queries, and the optimizations §2 and §4 name.
// Each Ex function reproduces one of them as a printable table;
// EXPERIMENTS.md records the expected shapes next to measured output.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/quiesce"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Table is one experiment's result, printable as the paper would report
// it.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// String renders an aligned text table.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Cell formats a value for a table cell.
func Cell(v interface{}) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.3f", x)
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// defaultCrowd is the baseline synthetic population used across
// experiments: competent but imperfect workers with realistic batching
// decay, occasional spam and abandonment.
func defaultCrowd(seed int64) crowd.Config {
	return crowd.Config{
		Workers:      150,
		Seed:         seed,
		MeanSkill:    0.92,
		SkillStd:     0.05,
		SpamFraction: 0.03,
		AbandonRate:  0.01,
		BatchPenalty: 0.012,
	}
}

// mustEngine builds an engine over datasets or panics (experiments are
// driver code; configuration errors are programming errors).
func mustEngine(cfg core.Config, crowdCfg crowd.Config, datasets ...workload.Dataset) *core.Engine {
	var oracles []crowd.Oracle
	for _, ds := range datasets {
		oracles = append(oracles, ds.Oracle)
	}
	if cfg.Oracle == nil {
		cfg.Oracle = workload.Combine(oracles...)
	} else {
		oracles = append(oracles, cfg.Oracle)
		cfg.Oracle = workload.Combine(oracles...)
	}
	cfg.Crowd = crowdCfg
	e, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	for _, ds := range datasets {
		for _, tab := range ds.Tables {
			if err := e.Register(tab); err != nil {
				panic(err)
			}
		}
	}
	return e
}

const taskDefs = `
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "Find the CEO and the CEO's phone number for the company %s", companyName
  Response: Form(("CEO", String), ("Phone", String))

TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Drag a picture of any Celebrity in the left column to their matching picture in the Spotted Star column to the right."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)

TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this photo of a cat? %s", photo
  Response: YesNo

TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", photo
  Response: YesNo

TASK isClear(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is the person in this photo clearly visible? %s", photo
  Response: YesNo

TASK squareScore(Image pic)
RETURNS Int:
  TaskType: Rating
  Text: "How visually appealing is %s, on a scale of 1 to 9?", pic
  Response: Rating(1, 9)

TASK better(Image a, Image b)
RETURNS Bool:
  TaskType: Filter
  Text: "Is the first image (%s) more appealing than the second (%s)?", a, b
  Response: YesNo
`

// defineAll installs the shared task definitions.
func defineAll(e *core.Engine) {
	if err := e.Define(taskDefs); err != nil {
		panic(err)
	}
}

// query1 and query2 are the paper's demo queries, verbatim modulo
// quoting.
const (
	query1 = `SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies`
	query2 = `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars WHERE samePerson(celebrities.image, spottedstars.image)`
)

// drive makes the calling goroutine — an experiment that submits to the
// task manager directly, outside the executor — a participant of the
// engine clock's quiescence gate, like an executor goroutine: the pump
// cannot advance virtual time while it runs, only while it parks on a
// quiesce.WaitGroup built on the returned gate. Call the returned
// release when done driving.
func drive(e *core.Engine) (g *quiesce.Gate, release func()) {
	g = e.Clock().Gate()
	g.Hold()
	return g, g.Release
}

// settle blocks until the engine's clock has run every scheduled event
// and no goroutine holds its gate. Pending is read first: the pump holds
// the gate from before it pops an event until the event has run.
func settle(e *core.Engine) {
	for e.Clock().Pending() > 0 || e.Clock().Gate().Busy() {
		time.Sleep(200 * time.Microsecond)
	}
}

// queryAndWait drains one query through the context API, returning the
// rows and the typed terminal error (the experiments' one-call idiom).
func queryAndWait(e *core.Engine, sql string) ([]relation.Tuple, error) {
	rows, err := e.Query(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []relation.Tuple
	for rows.Next() {
		out = append(out, rows.Tuple())
	}
	return out, rows.Err()
}

// timedQuery runs one query alone on e and reports its rows and its
// virtual latency in minutes: from its start to the moment its result
// stream ended. It settles the clock first, so events left over from
// earlier work cannot race the start, and it reads the end from the
// executor rather than the clock, which keeps running after the last
// row.
func timedQuery(e *core.Engine, sql string) ([]relation.Tuple, float64, error) {
	settle(e)
	rows, err := e.Query(context.Background(), sql)
	if err != nil {
		return nil, 0, err
	}
	defer rows.Close()
	var out []relation.Tuple
	for rows.Next() {
		out = append(out, rows.Tuple())
	}
	h := rows.Handle()
	end, _ := h.Exec.EndedAt()
	return out, (end - h.StartedAt).Minutes(), rows.Err()
}
