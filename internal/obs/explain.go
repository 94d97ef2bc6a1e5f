package obs

import (
	"fmt"
	"strings"
)

// explainRow is one operator line in the EXPLAIN ANALYZE table.
type explainRow struct {
	depth int
	span  *Span
}

// ExplainAnalyze renders a finished query trace as a per-operator table:
// rows in/out, HITs, assignments, spend and virtual elapsed time, with
// plan-stage and cache/model annotations folded in. The input is the
// query's root span (Kind query).
func ExplainAnalyze(root *Span) string {
	if root == nil {
		return "no trace recorded (tracing disabled)"
	}
	var rows []explainRow
	var collect func(s *Span, depth int)
	collect = func(s *Span, depth int) {
		rows = append(rows, explainRow{depth: depth, span: s})
		for _, c := range s.Children() {
			if c.Kind == KindOperator || c.Kind == KindPlan {
				collect(c, depth+1)
			}
		}
	}
	collect(root, 0)

	headers := []string{"operator", "rows", "hits", "assign", "cost", "ms"}
	table := [][]string{headers}
	for _, r := range rows {
		s := r.span
		name := strings.Repeat("  ", r.depth) + string(s.Kind)
		if label := s.Label(); label != "" {
			name += " " + label
		}
		if s.Kind == KindPlan {
			if v, ok := s.Attr("cache"); ok {
				name += " [cache " + v + "]"
			}
		}
		end := s.EndTime()
		if !s.Ended() {
			end = s.Start
		}
		ms := (end - s.Start).Duration().Milliseconds()
		rowCount := s.RowsOut.Load()
		rowCell := fmt.Sprintf("%d", rowCount)
		if in := s.RowsIn.Load(); in != rowCount && in > 0 {
			rowCell = fmt.Sprintf("%d/%d", in, rowCount)
		}
		extras := ""
		if n := s.CacheHits.Load(); n > 0 {
			extras += fmt.Sprintf(" cache=%d", n)
		}
		if n := s.ModelHits.Load(); n > 0 {
			extras += fmt.Sprintf(" model=%d", n)
		}
		if n := s.Extensions.Load(); n > 0 {
			extras += fmt.Sprintf(" ext=%d", n)
		}
		if n := s.RefundCents.Load(); n > 0 {
			extras += fmt.Sprintf(" refund=%d¢", n)
		}
		table = append(table, []string{
			name + extras,
			rowCell,
			fmt.Sprintf("%d", s.HITs.Load()),
			fmt.Sprintf("%d", s.Assignments.Load()),
			fmt.Sprintf("%d¢", s.CostCents.Load()),
			fmt.Sprintf("%d", ms),
		})
	}

	widths := make([]int, len(headers))
	for _, row := range table {
		for i, cell := range row {
			if w := len([]rune(cell)); w > widths[i] {
				widths[i] = w
			}
		}
	}
	var b strings.Builder
	for ri, row := range table {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len([]rune(cell))
			if i == 0 {
				b.WriteString(cell)
				b.WriteString(strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteString("\n")
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
