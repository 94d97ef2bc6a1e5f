// Package workload generates the synthetic datasets and ground-truth
// oracles the experiments run against, replacing the demo's proprietary
// image corpora (celebrity photos, company listings) with controlled
// equivalents — see DESIGN.md §2 for the substitution rationale.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/crowd"
	"repro/internal/relation"
)

// Dataset bundles generated tables with the oracle that knows their
// ground truth. Oracles compose: an engine typically runs with
// Combine(...) over every dataset in play.
type Dataset struct {
	Tables []*relation.Table
	Oracle crowd.Oracle
}

// Combine merges oracles; the first non-NULL answer wins.
func Combine(oracles ...crowd.Oracle) crowd.Oracle {
	return crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		for _, o := range oracles {
			if v := o.Truth(task, args); !v.IsNull() {
				return v
			}
		}
		return relation.Null
	})
}

// Companies generates the Query 1 workload: a companies table whose CEO
// name and phone number are derivable only through the oracle (the
// "information on the web" the turkers look up).
func Companies(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	tab := relation.NewTable("companies", relation.MustSchema(
		relation.Column{Name: "companyName", Kind: relation.KindString}))
	truth := make(map[string]relation.Value, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s %s Inc %03d", adjectives[rng.Intn(len(adjectives))], nouns[rng.Intn(len(nouns))], i)
		_ = tab.InsertValues(relation.NewString(name))
		truth[strings.ToLower(name)] = relation.NewTuple(
			relation.Field{Name: "CEO", Value: relation.NewString(firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))])},
			relation.Field{Name: "Phone", Value: relation.NewString(fmt.Sprintf("555-%04d", rng.Intn(10000)))},
		)
	}
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		if !strings.EqualFold(task, "findCEO") || len(args) == 0 {
			return relation.Null
		}
		if v, ok := truth[strings.ToLower(args[0].Str())]; ok {
			return v
		}
		return relation.Null
	})
	return Dataset{Tables: []*relation.Table{tab}, Oracle: oracle}
}

// Celebrities generates the Query 2 workload: a celebrities table and a
// spottedstars table of submitted sightings. matchFraction of sightings
// depict a celebrity from the table; the rest match nobody. The oracle
// answers samePerson by shared person identity embedded in the image
// reference (the visual identity a human would recognize).
func Celebrities(nCelebs, nSpotted int, matchFraction float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	celebs := relation.NewTable("celebrities", relation.MustSchema(
		relation.Column{Name: "name", Kind: relation.KindString},
		relation.Column{Name: "image", Kind: relation.KindImage}))
	spotted := relation.NewTable("spottedstars", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "image", Kind: relation.KindImage}))
	for i := 0; i < nCelebs; i++ {
		name := firstNames[i%len(firstNames)] + " " + lastNames[(i/len(firstNames))%len(lastNames)]
		_ = celebs.InsertValues(relation.NewString(name), relation.NewImage(fmt.Sprintf("person%04d-studio.png", i)))
	}
	for j := 0; j < nSpotted; j++ {
		// Junk sightings carry a "nobody" identity that can never equal a
		// celebrity's, at any table size.
		ref := fmt.Sprintf("nobody%04d-street%04d.png", j, j)
		if rng.Float64() < matchFraction && nCelebs > 0 {
			ref = fmt.Sprintf("person%04d-street%04d.png", rng.Intn(nCelebs), j)
		}
		_ = spotted.InsertValues(relation.NewInt(int64(j+1)), relation.NewImage(ref))
	}
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		switch {
		case strings.EqualFold(task, "samePerson") && len(args) >= 2:
			return relation.NewBool(personOf(args[0].Str()) == personOf(args[1].Str()))
		case strings.EqualFold(task, "isCeleb") && len(args) >= 1:
			// The cheap feature question of the join pre-filter: "could
			// this be one of the listed celebrities at all?" — a human
			// recognizes a public figure much faster than they match two
			// specific photos. Junk sightings embed an offset identity.
			return relation.NewBool(IsCelebRef(args[0].Str()))
		}
		return relation.Null
	})
	return Dataset{Tables: []*relation.Table{celebs, spotted}, Oracle: oracle}
}

// personOf extracts the latent identity from an image reference.
func personOf(ref string) string {
	if i := strings.IndexByte(ref, '-'); i > 0 {
		return ref[:i]
	}
	return ref
}

// IsCelebRef is the ground truth of the isCeleb feature filter: matched
// sightings (and the celebrity photos themselves) carry a "person"
// identity; junk sightings carry a "nobody" identity that matches no
// celebrity at any table size.
func IsCelebRef(ref string) bool {
	return strings.HasPrefix(personOf(ref), "person")
}

// Photos generates a photo table for filter workloads. Each photo is a
// cat with probability catFraction and outdoors with outdoorFraction,
// independently; the oracle answers isCat and isOutdoor.
func Photos(n int, catFraction, outdoorFraction float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	tab := relation.NewTable("photos", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "img", Kind: relation.KindImage}))
	type truth struct{ cat, outdoor bool }
	truths := make(map[string]truth, n)
	for i := 0; i < n; i++ {
		tr := truth{cat: rng.Float64() < catFraction, outdoor: rng.Float64() < outdoorFraction}
		subject, scene := "toaster", "indoor"
		if tr.cat {
			subject = "feline"
		}
		if tr.outdoor {
			scene = "park"
		}
		ref := fmt.Sprintf("photo%05d-%s-%s.png", i, subject, scene)
		truths[ref] = tr
		_ = tab.InsertValues(relation.NewInt(int64(i+1)), relation.NewImage(ref))
	}
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		if len(args) == 0 {
			return relation.Null
		}
		tr, ok := truths[args[0].Str()]
		if !ok {
			return relation.Null
		}
		switch {
		case strings.EqualFold(task, "isCat"):
			return relation.NewBool(tr.cat)
		case strings.EqualFold(task, "isOutdoor"):
			return relation.NewBool(tr.outdoor)
		default:
			return relation.Null
		}
	})
	return Dataset{Tables: []*relation.Table{tab}, Oracle: oracle}
}

// RankItems generates items with a latent quality score in [1, scale]
// for sort experiments; the oracle answers the named rating task with
// the latent score (workers then add noise).
func RankItems(n, scale int, task string, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	tab := relation.NewTable("items", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "img", Kind: relation.KindImage},
		relation.Column{Name: "truth", Kind: relation.KindFloat}))
	scores := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		score := 1 + rng.Float64()*float64(scale-1)
		ref := fmt.Sprintf("item%05d.png", i)
		scores[ref] = score
		_ = tab.InsertValues(relation.NewInt(int64(i+1)), relation.NewImage(ref), relation.NewFloat(score))
	}
	oracle := crowd.OracleFunc(func(gotTask string, args []relation.Value) relation.Value {
		if !strings.EqualFold(gotTask, task) || len(args) == 0 {
			return relation.Null
		}
		if s, ok := scores[args[0].Str()]; ok {
			return relation.NewInt(int64(s + 0.5))
		}
		return relation.Null
	})
	return Dataset{Tables: []*relation.Table{tab}, Oracle: oracle}
}

// OrderOracle answers an S-way comparison (Order response) task from
// the latent scores of a RankItems table: each shown item's truth is
// its exact latent score, so a perfect worker's ranking is the true
// ascending order — the crowd layer converts noisy scores to ranks.
func OrderOracle(items *relation.Table, task string) crowd.Oracle {
	scores := make(map[string]float64, items.Len())
	for _, row := range items.Snapshot() {
		scores[row.Get("img").Str()] = row.Get("truth").Float()
	}
	return crowd.OracleFunc(func(gotTask string, args []relation.Value) relation.Value {
		if !strings.EqualFold(gotTask, task) || len(args) == 0 {
			return relation.Null
		}
		if s, ok := scores[args[0].Str()]; ok {
			return relation.NewFloat(s)
		}
		return relation.Null
	})
}

// CompareOracle answers a pairwise comparison task ("is A ranked above
// B?") from the same latent scores as RankItems, for comparison-sort
// experiments. truthCol must be the RankItems table.
func CompareOracle(items *relation.Table, task string) crowd.Oracle {
	scores := make(map[string]float64, items.Len())
	for _, row := range items.Snapshot() {
		scores[row.Get("img").Str()] = row.Get("truth").Float()
	}
	return crowd.OracleFunc(func(gotTask string, args []relation.Value) relation.Value {
		if !strings.EqualFold(gotTask, task) || len(args) < 2 {
			return relation.Null
		}
		return relation.NewBool(scores[args[0].Str()] > scores[args[1].Str()])
	})
}

// Reviews generates short text snippets with a latent sentiment for the
// sentiment-analysis workload the paper's introduction motivates.
func Reviews(n int, positiveFraction float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	tab := relation.NewTable("reviews", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "text", Kind: relation.KindString}))
	sentiments := make(map[string]string, n)
	for i := 0; i < n; i++ {
		pos := rng.Float64() < positiveFraction
		var text string
		if pos {
			text = fmt.Sprintf("Review %04d: %s, would recommend.", i, positives[rng.Intn(len(positives))])
		} else {
			text = fmt.Sprintf("Review %04d: %s, avoid.", i, negatives[rng.Intn(len(negatives))])
		}
		if pos {
			sentiments[text] = "positive"
		} else {
			sentiments[text] = "negative"
		}
		_ = tab.InsertValues(relation.NewInt(int64(i+1)), relation.NewString(text))
	}
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		if len(args) == 0 {
			return relation.Null
		}
		switch {
		case strings.EqualFold(task, "sentiment"):
			if s, ok := sentiments[args[0].Str()]; ok {
				return relation.NewString(s)
			}
		case strings.EqualFold(task, "isPositive"):
			if s, ok := sentiments[args[0].Str()]; ok {
				return relation.NewBool(s == "positive")
			}
		}
		return relation.Null
	})
	return Dataset{Tables: []*relation.Table{tab}, Oracle: oracle}
}

var (
	adjectives = []string{"Global", "United", "Apex", "Quantum", "Stellar", "Pioneer", "Summit", "Vertex", "Crystal", "Atlas"}
	nouns      = []string{"Systems", "Dynamics", "Industries", "Holdings", "Labs", "Networks", "Logistics", "Materials", "Energy", "Robotics"}
	firstNames = []string{"Ada", "Grace", "Alan", "Edsger", "Barbara", "Donald", "Leslie", "Tony", "Frances", "John"}
	lastNames  = []string{"Lovelace", "Hopper", "Turing", "Dijkstra", "Liskov", "Knuth", "Lamport", "Hoare", "Allen", "Backus"}
	positives  = []string{"absolutely wonderful", "exceeded expectations", "five stars", "fantastic quality", "a delight"}
	negatives  = []string{"utterly disappointing", "fell apart quickly", "one star", "terrible support", "a waste"}
)
