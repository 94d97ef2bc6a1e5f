// Sentiment triage: the "extracting sentiment from a corpus of text
// snippets" workload the paper's abstract motivates. Humans filter
// reviews to the positive ones and rank a photo-quality table — showing
// filter + order-by over crowd answers, with batching tuned by the
// optimizer.
//
//	go run ./examples/sentiment
package main

import (
	"context"
	"fmt"
	"log"

	"repro/qurk"
)

func main() {
	reviews := qurk.Reviews(40, 0.35, 11)
	items := qurk.RankItems(8, 9, "appeal", 11)
	eng, err := qurk.New(qurk.Config{
		Oracle:   qurk.CombineOracles(reviews.Oracle, items.Oracle),
		Crowd:    qurk.CrowdConfig{MeanSkill: 0.96, SkillStd: 0.02, SpamFraction: 0.01, AbandonRate: 0.01, BatchPenalty: 0.003},
		AutoTune: true, // optimizer picks redundancy and batch sizes
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	for _, ds := range []qurk.Dataset{reviews, items} {
		for _, t := range ds.Tables {
			if err := eng.Register(t); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := eng.Define(`
TASK isPositive(String text)
RETURNS Bool:
  TaskType: Filter
  Text: "Does this review express a positive sentiment? %s", text
  Response: YesNo

TASK appeal(Image pic)
RETURNS Int:
  TaskType: Rating
  Text: "How appealing is this photo, 1 (worst) to 9 (best)? %s", pic
  Response: Rating(1, 9)
`); err != nil {
		log.Fatal(err)
	}

	// Stream the positives as the crowd confirms them; a per-query
	// budget shows the typed-error contract (this cap is ample, so the
	// query completes — shrink it to watch ErrBudgetExhausted surface).
	ctx := context.Background()
	positives, err := eng.Query(ctx, `
SELECT id, text FROM reviews WHERE isPositive(text)`,
		qurk.WithBudget(qurk.Cents(500)))
	if err != nil {
		log.Fatal(err)
	}
	defer positives.Close()
	kept := 0
	for positives.Next() {
		if row := positives.Tuple(); kept < 3 {
			fmt.Printf("  #%-3d %s\n", row.Get("id").Int(), row.Get("text").Str())
		}
		kept++
	}
	if err := positives.Err(); err != nil {
		log.Fatal(err) // errors.Is(err, qurk.ErrBudgetExhausted) on a tight cap
	}
	fmt.Printf("crowd kept %d of 40 reviews as positive\n", kept)

	// ORDER BY buffers before emitting, so a plain drained cursor is
	// natural here.
	ranked, err := eng.Query(ctx, `
SELECT img, appeal(img) AS score FROM items ORDER BY score DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	defer ranked.Close()
	fmt.Println("\ntop photos by crowd rating:")
	for ranked.Next() {
		row := ranked.Tuple()
		fmt.Printf("  %-16s %.2f\n", row.Get("img").Str(), row.Get("score").Float())
	}
	if err := ranked.Err(); err != nil {
		log.Fatal(err)
	}

	snap := eng.Snapshot()
	fmt.Printf("\ntotal crowd spend: %s across %d HITs (batching on: filters asked %d questions in %d HITs)\n",
		snap.Budget.Spent, snap.Market.HITsPosted,
		statFor(snap, "ispositive").QuestionsAsked, statFor(snap, "ispositive").HITsPosted)
}

func statFor(snap qurk.Snapshot, task string) taskStat {
	for _, s := range snap.Tasks {
		if s.Task == task {
			return taskStat{QuestionsAsked: s.QuestionsAsked, HITsPosted: s.HITsPosted}
		}
	}
	return taskStat{}
}

type taskStat struct{ QuestionsAsked, HITsPosted int64 }
