package hit

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// refRenderText is RenderText's fmt-only implementation, kept as the
// reference the fast path must match byte for byte.
func refRenderText(template string, textArgs []string, params []qlang.Param, args []relation.Value) string {
	if !strings.Contains(template, "%s") {
		return template
	}
	pos := make(map[string]int, len(params))
	for i, p := range params {
		pos[strings.ToLower(p.Name)] = i
	}
	subs := make([]interface{}, 0, len(textArgs))
	for _, name := range textArgs {
		i, ok := pos[strings.ToLower(name)]
		if !ok || i >= len(args) {
			subs = append(subs, "?")
			continue
		}
		subs = append(subs, displayValue(args[i]))
	}
	return fmt.Sprintf(strings.ReplaceAll(template, "%s", "%v"), subs...)
}

func TestRenderTextMatchesFmt(t *testing.T) {
	str := []qlang.Param{{Name: "name"}, {Name: "photo"}}
	vals := []relation.Value{relation.NewString("Acme"), relation.NewImage("cat.png")}
	tuple := relation.NewTuple(relation.Field{Name: "CEO", Value: relation.NewString("Jane")},
		relation.Field{Name: "Phone", Value: relation.NewInt(555)})
	list := relation.NewList(relation.NewImage("a.png"), relation.NewString("b"), relation.NewFloat(0.5))
	cases := []struct {
		name     string
		template string
		textArgs []string
		params   []qlang.Param
		args     []relation.Value
	}{
		{"two placeholders", "Is %s the CEO of %s?", []string{"name", "photo"}, str, vals},
		{"no placeholder", "Match the pictures.", nil, str, vals},
		{"no placeholder with args", "Match the pictures.", []string{"name"}, str, vals},
		{"percent d", "Rate %s from %d to 9", []string{"name"}, str, vals},
		{"escaped percent", "%s is 100%% sure", []string{"name"}, str, vals},
		{"escaped before s", "%%s and %s", []string{"name"}, str, vals},
		{"trailing percent", "Is %s a cat %", []string{"photo"}, str, vals},
		{"fewer placeholders than args", "Is %s a cat?", []string{"name", "photo"}, str, vals},
		{"more placeholders than args", "%s %s %s", []string{"name"}, str, vals},
		{"placeholder only", "%s", []string{"photo"}, str, vals},
		{"adjacent placeholders", "%s%s", []string{"photo", "name"}, str, vals},
		{"duplicate parameter, last wins", "%s", []string{"x"},
			[]qlang.Param{{Name: "x"}, {Name: "X"}}, vals},
		{"duplicate parameter past the args", "%s", []string{"x"},
			[]qlang.Param{{Name: "x"}, {Name: "y"}, {Name: "x"}}, vals},
		{"case-differing names", "%s / %s", []string{"NAME", "Photo"}, str, vals},
		{"missing parameter", "%s and %s", []string{"name", "nobody"}, str, vals},
		{"missing argument", "%s and %s", []string{"name", "photo"}, str, vals[:1]},
		{"list value", "Pick from %s.", []string{"l"}, []qlang.Param{{Name: "l", IsList: true}},
			[]relation.Value{list}},
		{"tuple value", "Check %s.", []string{"t"}, []qlang.Param{{Name: "t"}}, []relation.Value{tuple}},
		{"float value", "About %s?", []string{"f"}, []qlang.Param{{Name: "f"}},
			[]relation.Value{relation.NewFloat(math.Pi)}},
		{"image value", "Look at %s.", []string{"p"}, []qlang.Param{{Name: "p"}},
			[]relation.Value{relation.NewImage("x.png")}},
		{"null value", "Is %s set?", []string{"n"}, []qlang.Param{{Name: "n"}},
			[]relation.Value{relation.Null}},
		{"value with a verb in it", "Say %s.", []string{"name"}, str,
			[]relation.Value{relation.NewString("%d %s %%")}},
		{"non-ASCII names", "Σ is %s", []string{"ΣΑΣ"}, []qlang.Param{{Name: "σας"}}, vals},
	}
	for _, tc := range cases {
		got := RenderText(tc.template, tc.textArgs, tc.params, tc.args)
		want := refRenderText(tc.template, tc.textArgs, tc.params, tc.args)
		if got != want {
			t.Errorf("%s: RenderText = %q, fmt renders %q", tc.name, got, want)
		}
	}
}

// FuzzRenderText checks RenderText against the fmt reference over
// arbitrary templates, text-argument and parameter names (duplicates
// and case variants included) and value kinds.
func FuzzRenderText(f *testing.F) {
	f.Add("Is %s a cat?", "photo", "", "photo", "Photo", uint8(1), uint8(0), "cat.png", 1.5)
	f.Add("%s and %s", "A", "b", "a", "B", uint8(2), uint8(0x21), "x", -2.0)
	f.Add("%d%%%s%", "x", "x", "X", "x", uint8(3), uint8(0x53), "%s", math.Inf(1))
	f.Add("%s%s", "k", "\xff", "K", "�", uint8(2), uint8(0x44), "", 0.0)
	f.Fuzz(func(t *testing.T, template, a1, a2, p1, p2 string, nargs, kinds uint8, s string, x float64) {
		textArgs := []string{a1, a2, a1}[:nargs%4]
		params := []qlang.Param{{Name: p1}, {Name: p2}}
		value := func(k uint8) relation.Value {
			switch k % 7 {
			case 0:
				return relation.NewString(s)
			case 1:
				return relation.NewImage(s)
			case 2:
				return relation.NewFloat(x)
			case 3:
				return relation.NewInt(int64(x))
			case 4:
				return relation.NewList(relation.NewImage(s), relation.NewFloat(x))
			case 5:
				return relation.NewTuple(relation.Field{Name: s, Value: relation.NewFloat(x)})
			default:
				return relation.Null
			}
		}
		// Zero, one or two arguments, so a parameter may lack one.
		args := []relation.Value{value(kinds), value(kinds >> 3)}[:int(kinds>>6)%3]
		got := RenderText(template, textArgs, params, args)
		want := refRenderText(template, textArgs, params, args)
		if got != want {
			t.Fatalf("RenderText(%q, %q, %q %q, %v) = %q, fmt renders %q", template, textArgs, p1, p2, args, got, want)
		}
	})
}
