package hit

import (
	"fmt"
	"html"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// Compile renders the HIT as the HTML form a turker fills out, the same
// artifact Qurk's HIT Compiler ships to MTurk. The form round-trips:
// ParseForm decodes a submission of the generated inputs.
func Compile(h *HIT) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">")
	fmt.Fprintf(&b, "<title>%s</title></head>\n<body>\n", html.EscapeString(h.Title))
	fmt.Fprintf(&b, "<form method=\"post\" action=\"/submit\" class=\"qurk-hit\" data-hit=\"%s\">\n", html.EscapeString(h.ID))
	fmt.Fprintf(&b, "<input type=\"hidden\" name=\"hit\" value=\"%s\">\n", html.EscapeString(h.ID))
	fmt.Fprintf(&b, "<p class=\"instructions\">%s</p>\n", html.EscapeString(h.Question))

	switch h.Response.Kind {
	case qlang.ResponseJoinColumns:
		compileJoinColumns(&b, h)
	case qlang.ResponseForm:
		compileForm(&b, h)
	case qlang.ResponseYesNo:
		compileYesNo(&b, h)
	case qlang.ResponseRating:
		compileRating(&b, h)
	case qlang.ResponseOrder:
		compileOrder(&b, h)
	case qlang.ResponseChoice:
		compileChoice(&b, h)
	}

	fmt.Fprintf(&b, "<p class=\"reward\">Reward: $%d.%02d · %d assignment(s)</p>\n",
		h.RewardCents/100, h.RewardCents%100, h.Assignments)
	b.WriteString("<button type=\"submit\">Submit</button>\n</form>\n</body></html>\n")
	return b.String()
}

func renderArgs(b *strings.Builder, args []relation.Value) {
	for _, a := range args {
		switch a.Kind() {
		case relation.KindImage:
			fmt.Fprintf(b, "<img src=\"%s\" alt=\"%s\">", html.EscapeString(a.Str()), html.EscapeString(a.Str()))
		case relation.KindList:
			renderArgs(b, a.List())
		default:
			fmt.Fprintf(b, "<span class=\"datum\">%s</span>", html.EscapeString(a.String()))
		}
	}
}

// inputName names question i's form input: a prefix for the response
// kind and the question's index.
func inputName(prefix string, i int) string {
	return prefix + "_" + strconv.Itoa(i)
}

// fieldName names one field of question i's Form response. The label is
// URL-escaped, so like every input name it needs no HTML escaping.
func fieldName(i int, label string) string {
	return inputName("f", i) + "_" + url.QueryEscape(label)
}

func compileForm(b *strings.Builder, h *HIT) {
	for i, it := range h.Items {
		b.WriteString("<fieldset class=\"item\">")
		renderArgs(b, it.Args)
		for _, f := range h.Response.Fields {
			fmt.Fprintf(b, "<label>%s <input type=\"text\" name=\"%s\"></label>",
				html.EscapeString(f.Label), fieldName(i, f.Label))
		}
		b.WriteString("</fieldset>\n")
	}
}

func compileYesNo(b *strings.Builder, h *HIT) {
	for i, it := range h.Items {
		b.WriteString("<fieldset class=\"item\">")
		if it.Prompt != "" {
			fmt.Fprintf(b, "<p class=\"prompt\">%s</p>", html.EscapeString(it.Prompt))
		}
		renderArgs(b, it.Args)
		name := inputName("yn", i)
		fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\" value=\"yes\"> Yes</label>", name)
		fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\" value=\"no\"> No</label>", name)
		b.WriteString("</fieldset>\n")
	}
}

func compileRating(b *strings.Builder, h *HIT) {
	lo, hi := h.Response.ScaleMin, h.Response.ScaleMax
	for i, it := range h.Items {
		b.WriteString("<fieldset class=\"item\">")
		renderArgs(b, it.Args)
		name := inputName("r", i)
		for v := lo; v <= hi; v++ {
			fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\" value=\"%d\"> %d</label>", name, v, v)
		}
		b.WriteString("</fieldset>\n")
	}
}

func compileOrder(b *strings.Builder, h *HIT) {
	n := len(h.Items)
	for i, it := range h.Items {
		b.WriteString("<fieldset class=\"item\">")
		renderArgs(b, it.Args)
		name := inputName("o", i)
		fmt.Fprintf(b, "<select name=\"%s\">", name)
		for v := 1; v <= n; v++ {
			fmt.Fprintf(b, "<option value=\"%d\">%d</option>", v, v)
		}
		b.WriteString("</select></fieldset>\n")
	}
}

func compileChoice(b *strings.Builder, h *HIT) {
	for i, it := range h.Items {
		b.WriteString("<fieldset class=\"item\">")
		renderArgs(b, it.Args)
		name := inputName("c", i)
		for _, opt := range h.Response.Options {
			fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\" value=\"%s\"> %s</label>",
				name, html.EscapeString(opt), html.EscapeString(opt))
		}
		b.WriteString("</fieldset>\n")
	}
}

// compileJoinColumns renders the two-column matching interface of
// Figure 3: each left item paired with each right item is one checkbox,
// row-major, so the checkbox of cell (l, r) is named for question
// l*len(Right)+r.
func compileJoinColumns(b *strings.Builder, h *HIT) {
	fmt.Fprintf(b, "<table class=\"join\"><tr><th>%s</th><th>%s</th></tr>\n",
		html.EscapeString(h.Response.LeftLabel), html.EscapeString(h.Response.RightLabel))
	b.WriteString("<tr><td>")
	for _, l := range h.Left {
		b.WriteString("<div class=\"cell\">")
		renderArgs(b, l.Args)
		b.WriteString("</div>")
	}
	b.WriteString("</td><td>")
	for _, r := range h.Right {
		b.WriteString("<div class=\"cell\">")
		renderArgs(b, r.Args)
		b.WriteString("</div>")
	}
	b.WriteString("</td></tr></table>\n<div class=\"matches\">\n")
	i := 0
	for _, l := range h.Left {
		for _, r := range h.Right {
			fmt.Fprintf(b, "<label><input type=\"checkbox\" name=\"%s\" value=\"match\"> %s ↔ %s</label>\n",
				inputName("m", i), html.EscapeString(cellLabel(l)), html.EscapeString(cellLabel(r)))
			i++
		}
	}
	b.WriteString("</div>\n")
}

// cellLabel names a grid row or column beside its checkboxes: its first
// argument, or nothing when it has none.
func cellLabel(it Item) string {
	if len(it.Args) == 0 {
		return ""
	}
	return displayValue(it.Args[0])
}

// ParseForm decodes a submitted form (as url.Values) into workerID's
// answer sheet for this HIT, one value per question in question order.
// Missing radio/checkbox inputs decode to their negative or NULL
// values, matching browser semantics.
func ParseForm(h *HIT, form url.Values, workerID string) (Answers, error) {
	ans := Answers{WorkerID: workerID, Values: make([]relation.Value, h.QuestionCount())}
	switch h.Response.Kind {
	case qlang.ResponseJoinColumns:
		for i := range ans.Values {
			ans.Values[i] = relation.NewBool(form.Get(inputName("m", i)) == "match")
		}
	case qlang.ResponseForm:
		for i := range h.Items {
			fields := make([]relation.Field, 0, len(h.Response.Fields))
			for _, f := range h.Response.Fields {
				raw := form.Get(fieldName(i, f.Label))
				v, err := parseFieldValue(f.Kind, raw)
				if err != nil {
					return Answers{}, fmt.Errorf("hit %s question %d field %s: %v", h.ID, i, f.Label, err)
				}
				fields = append(fields, relation.Field{Name: f.Label, Value: v})
			}
			if len(fields) == 1 && len(h.Response.Fields) == 1 {
				ans.Values[i] = fields[0].Value
			} else {
				ans.Values[i] = relation.NewTuple(fields...)
			}
		}
	case qlang.ResponseYesNo:
		for i := range h.Items {
			switch form.Get(inputName("yn", i)) {
			case "yes":
				ans.Values[i] = relation.NewBool(true)
			case "no":
				ans.Values[i] = relation.NewBool(false)
			default:
				return Answers{}, fmt.Errorf("hit %s question %d: yes/no not answered", h.ID, i)
			}
		}
	case qlang.ResponseRating:
		for i := range h.Items {
			raw := form.Get(inputName("r", i))
			n, err := strconv.Atoi(raw)
			if err != nil || n < h.Response.ScaleMin || n > h.Response.ScaleMax {
				return Answers{}, fmt.Errorf("hit %s question %d: rating %q out of scale", h.ID, i, raw)
			}
			ans.Values[i] = relation.NewInt(int64(n))
		}
	case qlang.ResponseOrder:
		seen := make(map[int]bool, len(h.Items))
		for i := range h.Items {
			raw := form.Get(inputName("o", i))
			n, err := strconv.Atoi(raw)
			if err != nil || n < 1 || n > len(h.Items) {
				return Answers{}, fmt.Errorf("hit %s question %d: position %q invalid", h.ID, i, raw)
			}
			if seen[n] {
				return Answers{}, fmt.Errorf("hit %s: duplicate position %d", h.ID, n)
			}
			seen[n] = true
			ans.Values[i] = relation.NewInt(int64(n - 1))
		}
	case qlang.ResponseChoice:
		valid := make(map[string]bool, len(h.Response.Options))
		for _, o := range h.Response.Options {
			valid[o] = true
		}
		for i := range h.Items {
			raw := form.Get(inputName("c", i))
			if !valid[raw] {
				return Answers{}, fmt.Errorf("hit %s question %d: choice %q invalid", h.ID, i, raw)
			}
			ans.Values[i] = relation.NewString(raw)
		}
	default:
		return Answers{}, fmt.Errorf("hit %s: unsupported response kind %v", h.ID, h.Response.Kind)
	}
	return ans, nil
}

func parseFieldValue(kind relation.Kind, raw string) (relation.Value, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return relation.Null, nil
	}
	return relation.ParseValue(kind, raw)
}

// EncodeAnswers renders an answer sheet as the url.Values a browser
// would submit for this HIT's form. It is the reference inverse of
// ParseForm that the form round-trip tests check against; ans must
// answer every question (see CheckAnswers).
func EncodeAnswers(h *HIT, ans Answers) url.Values {
	form := url.Values{}
	form.Set("hit", h.ID)
	for i, v := range ans.Values {
		switch h.Response.Kind {
		case qlang.ResponseJoinColumns:
			if v.Truthy() {
				form.Set(inputName("m", i), "match")
			}
		case qlang.ResponseForm:
			if len(h.Response.Fields) == 1 {
				form.Set(fieldName(i, h.Response.Fields[0].Label), rawText(v))
				continue
			}
			for _, f := range h.Response.Fields {
				form.Set(fieldName(i, f.Label), rawText(v.Field(f.Label)))
			}
		case qlang.ResponseYesNo:
			if v.Truthy() {
				form.Set(inputName("yn", i), "yes")
			} else {
				form.Set(inputName("yn", i), "no")
			}
		case qlang.ResponseRating:
			form.Set(inputName("r", i), strconv.FormatInt(v.Int(), 10))
		case qlang.ResponseOrder:
			form.Set(inputName("o", i), strconv.FormatInt(v.Int()+1, 10))
		case qlang.ResponseChoice:
			form.Set(inputName("c", i), v.Str())
		}
	}
	return form
}

func rawText(v relation.Value) string {
	if v.IsNull() {
		return ""
	}
	if v.Kind() == relation.KindImage {
		return v.Str()
	}
	return v.String()
}
