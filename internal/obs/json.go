package obs

import "encoding/json"

// SpanRecord is the JSON wire form of one span.
type SpanRecord struct {
	ID          int64             `json:"id"`
	Parent      int64             `json:"parent,omitempty"`
	Kind        Kind              `json:"kind"`
	Name        string            `json:"name,omitempty"`
	StartMs     int64             `json:"start_ms"`
	EndMs       int64             `json:"end_ms"`
	Open        bool              `json:"open,omitempty"`
	RowsIn      int64             `json:"rows_in,omitempty"`
	RowsOut     int64             `json:"rows_out,omitempty"`
	HITs        int64             `json:"hits,omitempty"`
	Assignments int64             `json:"assignments,omitempty"`
	CostCents   int64             `json:"cost_cents,omitempty"`
	RefundCents int64             `json:"refund_cents,omitempty"`
	CacheHits   int64             `json:"cache_hits,omitempty"`
	ModelHits   int64             `json:"model_hits,omitempty"`
	Extensions  int64             `json:"extensions,omitempty"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Children    []SpanRecord      `json:"children,omitempty"`
}

// record converts a span and its subtree to wire form.
func record(s *Span) SpanRecord {
	r := SpanRecord{
		ID:          s.ID,
		Parent:      s.Parent,
		Kind:        s.Kind,
		Name:        s.Label(),
		StartMs:     s.Start.Duration().Milliseconds(),
		EndMs:       s.EndTime().Duration().Milliseconds(),
		Open:        !s.Ended(),
		RowsIn:      s.RowsIn.Load(),
		RowsOut:     s.RowsOut.Load(),
		HITs:        s.HITs.Load(),
		Assignments: s.Assignments.Load(),
		CostCents:   s.CostCents.Load(),
		RefundCents: s.RefundCents.Load(),
		CacheHits:   s.CacheHits.Load(),
		ModelHits:   s.ModelHits.Load(),
		Extensions:  s.Extensions.Load(),
	}
	if attrs := s.Attrs(); len(attrs) > 0 {
		r.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			if _, dup := r.Attrs[a.Key]; !dup {
				r.Attrs[a.Key] = a.Value
			}
		}
	}
	for _, c := range s.Children() {
		r.Children = append(r.Children, record(c))
	}
	return r
}

// MarshalTree renders one trace tree as nested JSON (the /trace/{id}
// response body).
func MarshalTree(root *Span) ([]byte, error) {
	if root == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(record(root), "", "  ")
}
