package eval_test

import (
	"fmt"
	"log"

	"questpro/internal/eval"
	"questpro/internal/ntriples"
	"questpro/internal/query"
)

// ExampleEvaluator_Results evaluates a small union query.
func ExampleEvaluator_Results() {
	o, err := ntriples.ParseString(`
paper1 wb Alice .
paper1 wb Bob .
paper2 wb Bob .
paper2 wb Erdos .
`)
	if err != nil {
		log.Fatal(err)
	}
	q := query.NewSimple()
	p := q.MustEnsureNode(query.Var("p"), "")
	a := q.MustEnsureNode(query.Var("a"), "")
	erdos := q.MustEnsureNode(query.Const("Erdos"), "")
	q.MustAddEdge(p, a, "wb")
	q.MustAddEdge(p, erdos, "wb")
	if err := q.SetProjected(a); err != nil {
		log.Fatal(err)
	}

	ev := eval.New(o)
	results, err := ev.Results(bg, query.NewUnion(q))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(results)
	// Output:
	// [Bob Erdos]
}

// ExampleEvaluator_ProvenanceOf shows the graph provenance of a result —
// the structure QuestPro displays during feedback.
func ExampleEvaluator_ProvenanceOf() {
	o, err := ntriples.ParseString(`
paper2 wb Bob .
paper2 wb Erdos .
`)
	if err != nil {
		log.Fatal(err)
	}
	q := query.NewSimple()
	p := q.MustEnsureNode(query.Var("p"), "")
	a := q.MustEnsureNode(query.Var("a"), "")
	erdos := q.MustEnsureNode(query.Const("Erdos"), "")
	q.MustAddEdge(p, a, "wb")
	q.MustAddEdge(p, erdos, "wb")
	if err := q.SetProjected(a); err != nil {
		log.Fatal(err)
	}

	ev := eval.New(o)
	provs, err := ev.ProvenanceOf(bg, q, "Bob", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(provs[0])
	// Output:
	// graph{3 nodes, 2 edges}
	//   paper2 -wb-> Bob
	//   paper2 -wb-> Erdos
}
