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

// itemName namespaces a form input by item key; keys are URL-escaped so
// the \x1f pair separator survives HTML transport.
func itemName(prefix, key string) string {
	return prefix + "_" + url.QueryEscape(key)
}

func compileForm(b *strings.Builder, h *HIT) {
	for _, it := range h.Items {
		fmt.Fprintf(b, "<fieldset class=\"item\" data-key=\"%s\">", html.EscapeString(it.Key))
		renderArgs(b, it.Args)
		for _, f := range h.Response.Fields {
			fmt.Fprintf(b, "<label>%s <input type=\"text\" name=\"%s\"></label>",
				html.EscapeString(f.Label), itemName("f", it.Key+"\x1e"+f.Label))
		}
		b.WriteString("</fieldset>\n")
	}
}

func compileYesNo(b *strings.Builder, h *HIT) {
	for _, it := range h.Items {
		fmt.Fprintf(b, "<fieldset class=\"item\" data-key=\"%s\">", html.EscapeString(it.Key))
		if it.Prompt != "" {
			fmt.Fprintf(b, "<p class=\"prompt\">%s</p>", html.EscapeString(it.Prompt))
		}
		renderArgs(b, it.Args)
		name := itemName("yn", it.Key)
		fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\" value=\"yes\"> Yes</label>", name)
		fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\" value=\"no\"> No</label>", name)
		b.WriteString("</fieldset>\n")
	}
}

func compileRating(b *strings.Builder, h *HIT) {
	lo, hi := h.Response.ScaleMin, h.Response.ScaleMax
	for _, it := range h.Items {
		fmt.Fprintf(b, "<fieldset class=\"item\" data-key=\"%s\">", html.EscapeString(it.Key))
		renderArgs(b, it.Args)
		name := itemName("r", it.Key)
		for v := lo; v <= hi; v++ {
			fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\" value=\"%d\"> %d</label>", name, v, v)
		}
		b.WriteString("</fieldset>\n")
	}
}

func compileOrder(b *strings.Builder, h *HIT) {
	n := len(h.Items)
	for _, it := range h.Items {
		fmt.Fprintf(b, "<fieldset class=\"item\" data-key=\"%s\">", html.EscapeString(it.Key))
		renderArgs(b, it.Args)
		name := itemName("o", it.Key)
		fmt.Fprintf(b, "<select name=\"%s\">", name)
		for v := 1; v <= n; v++ {
			fmt.Fprintf(b, "<option value=\"%d\">%d</option>", v, v)
		}
		b.WriteString("</select></fieldset>\n")
	}
}

func compileChoice(b *strings.Builder, h *HIT) {
	for _, it := range h.Items {
		fmt.Fprintf(b, "<fieldset class=\"item\" data-key=\"%s\">", html.EscapeString(it.Key))
		renderArgs(b, it.Args)
		name := itemName("c", it.Key)
		for _, opt := range h.Response.Options {
			fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\" value=\"%s\"> %s</label>",
				name, html.EscapeString(opt), html.EscapeString(opt))
		}
		b.WriteString("</fieldset>\n")
	}
}

// compileJoinColumns renders the two-column matching interface of
// Figure 3: each left item paired with each right item is one checkbox.
func compileJoinColumns(b *strings.Builder, h *HIT) {
	fmt.Fprintf(b, "<table class=\"join\"><tr><th>%s</th><th>%s</th></tr>\n",
		html.EscapeString(h.Response.LeftLabel), html.EscapeString(h.Response.RightLabel))
	b.WriteString("<tr><td>")
	for _, l := range h.Left {
		fmt.Fprintf(b, "<div class=\"cell\" data-key=\"%s\">", html.EscapeString(l.Key))
		renderArgs(b, l.Args)
		b.WriteString("</div>")
	}
	b.WriteString("</td><td>")
	for _, r := range h.Right {
		fmt.Fprintf(b, "<div class=\"cell\" data-key=\"%s\">", html.EscapeString(r.Key))
		renderArgs(b, r.Args)
		b.WriteString("</div>")
	}
	b.WriteString("</td></tr></table>\n<div class=\"matches\">\n")
	for _, l := range h.Left {
		for _, r := range h.Right {
			name := itemName("m", PairKey(l.Key, r.Key))
			fmt.Fprintf(b, "<label><input type=\"checkbox\" name=\"%s\" value=\"match\"> %s ↔ %s</label>\n",
				name, html.EscapeString(displayValue(firstArg(l))), html.EscapeString(displayValue(firstArg(r))))
		}
	}
	b.WriteString("</div>\n")
}

func firstArg(it Item) relation.Value {
	if len(it.Args) > 0 {
		return it.Args[0]
	}
	return relation.NewString(it.Key)
}

// ParseForm decodes a submitted form (as url.Values) into workerID's
// answer sheet for this HIT, one value per question in question order.
// Missing radio/checkbox inputs decode to their negative or NULL
// values, matching browser semantics.
func ParseForm(h *HIT, form url.Values, workerID string) (Answers, error) {
	ans := Answers{WorkerID: workerID, Values: make([]relation.Value, h.QuestionCount())}
	switch h.Response.Kind {
	case qlang.ResponseJoinColumns:
		i := 0
		for _, l := range h.Left {
			for _, r := range h.Right {
				ans.Values[i] = relation.NewBool(form.Get(itemName("m", PairKey(l.Key, r.Key))) == "match")
				i++
			}
		}
	case qlang.ResponseForm:
		for i, it := range h.Items {
			fields := make([]relation.Field, 0, len(h.Response.Fields))
			for _, f := range h.Response.Fields {
				raw := form.Get(itemName("f", it.Key+"\x1e"+f.Label))
				v, err := parseFieldValue(f.Kind, raw)
				if err != nil {
					return Answers{}, fmt.Errorf("hit %s item %s field %s: %v", h.ID, it.Key, f.Label, err)
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
		for i, it := range h.Items {
			switch form.Get(itemName("yn", it.Key)) {
			case "yes":
				ans.Values[i] = relation.NewBool(true)
			case "no":
				ans.Values[i] = relation.NewBool(false)
			default:
				return Answers{}, fmt.Errorf("hit %s item %s: yes/no not answered", h.ID, it.Key)
			}
		}
	case qlang.ResponseRating:
		for i, it := range h.Items {
			raw := form.Get(itemName("r", it.Key))
			n, err := strconv.Atoi(raw)
			if err != nil || n < h.Response.ScaleMin || n > h.Response.ScaleMax {
				return Answers{}, fmt.Errorf("hit %s item %s: rating %q out of scale", h.ID, it.Key, raw)
			}
			ans.Values[i] = relation.NewInt(int64(n))
		}
	case qlang.ResponseOrder:
		seen := make(map[int]bool, len(h.Items))
		for i, it := range h.Items {
			raw := form.Get(itemName("o", it.Key))
			n, err := strconv.Atoi(raw)
			if err != nil || n < 1 || n > len(h.Items) {
				return Answers{}, fmt.Errorf("hit %s item %s: position %q invalid", h.ID, it.Key, raw)
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
		for i, it := range h.Items {
			raw := form.Get(itemName("c", it.Key))
			if !valid[raw] {
				return Answers{}, fmt.Errorf("hit %s item %s: choice %q invalid", h.ID, it.Key, raw)
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

// EncodeAnswers is the inverse of ParseForm for the simulated crowd and
// the HTTP task UI: it renders an answer sheet as the url.Values a
// browser would submit for this HIT's form. ans must answer every
// question (see CheckAnswers).
func EncodeAnswers(h *HIT, ans Answers) url.Values {
	form := url.Values{}
	form.Set("hit", h.ID)
	switch h.Response.Kind {
	case qlang.ResponseJoinColumns:
		i := 0
		for _, l := range h.Left {
			for _, r := range h.Right {
				if ans.Values[i].Truthy() {
					form.Set(itemName("m", PairKey(l.Key, r.Key)), "match")
				}
				i++
			}
		}
	case qlang.ResponseForm:
		for i, it := range h.Items {
			v := ans.Values[i]
			if len(h.Response.Fields) == 1 {
				form.Set(itemName("f", it.Key+"\x1e"+h.Response.Fields[0].Label), rawText(v))
				continue
			}
			for _, f := range h.Response.Fields {
				form.Set(itemName("f", it.Key+"\x1e"+f.Label), rawText(v.Field(f.Label)))
			}
		}
	case qlang.ResponseYesNo:
		for i, it := range h.Items {
			if ans.Values[i].Truthy() {
				form.Set(itemName("yn", it.Key), "yes")
			} else {
				form.Set(itemName("yn", it.Key), "no")
			}
		}
	case qlang.ResponseRating:
		for i, it := range h.Items {
			form.Set(itemName("r", it.Key), strconv.FormatInt(ans.Values[i].Int(), 10))
		}
	case qlang.ResponseOrder:
		for i, it := range h.Items {
			form.Set(itemName("o", it.Key), strconv.FormatInt(ans.Values[i].Int()+1, 10))
		}
	case qlang.ResponseChoice:
		for i, it := range h.Items {
			form.Set(itemName("c", it.Key), ans.Values[i].Str())
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
