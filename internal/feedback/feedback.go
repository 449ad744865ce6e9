// Package feedback implements Section V of the paper: choosing a single
// query out of a set of candidates by asking a user about results of
// difference queries together with their provenance (Algorithm 3), and the
// follow-up interactive relaxation of disequality constraints.
package feedback

import (
	"context"
	"errors"
	"fmt"

	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/obs"
	"questpro/internal/provenance"
	"questpro/internal/qerr"
	"questpro/internal/query"
)

// Oracle abstracts the user: given a result of a difference query and its
// provenance with respect to the candidate that produced it, should the
// result (with that rationale) be part of the intended query's output? The
// context covers one question; oracles backed by a remote user (the service)
// block on it and must return its error when it is canceled.
type Oracle interface {
	ShouldInclude(ctx context.Context, res *eval.ResultWithProvenance) (bool, error)
}

// ExactOracle answers membership questions according to a known target
// query — the synthetic stand-in for the paper's proficient users.
type ExactOracle struct {
	Ev     *eval.Evaluator
	Target *query.Union
}

// ShouldInclude reports whether the value is a result of the target query.
func (o *ExactOracle) ShouldInclude(ctx context.Context, res *eval.ResultWithProvenance) (bool, error) {
	return o.Ev.HasResultValue(ctx, o.Target, res.Value)
}

// Question records one interaction of the feedback loop.
type Question struct {
	Kept, Dropped int // candidate indexes (into the original slice)
	Result        string
	Answer        bool
}

// Transcript is the full record of a feedback session.
type Transcript struct {
	Questions []Question
	// Undistinguished lists candidate index pairs whose difference queries
	// were empty in both directions (extensionally equivalent candidates).
	Undistinguished [][2]int
}

// Session drives the feedback loop over a fixed ontology.
type Session struct {
	Ev     *eval.Evaluator
	Oracle Oracle
	// Ex is the example-set used to derive each candidate's Q^all form.
	Ex provenance.ExampleSet
	// MaxQuestions bounds the number of oracle questions (0 = no bound).
	MaxQuestions int
}

// ChooseQuery implements Algorithm 3: it repeatedly takes a pair of
// remaining candidates, evaluates the difference Q_i^all − Q_j^no (the
// disequality-asymmetric form of Section V that lets one answer disqualify
// every form of the losing query), shows the oracle a sample result bound
// to Q_i^all with its provenance, and eliminates the refuted candidate.
// Pairs that cannot be distinguished in either direction leave the
// lower-indexed candidate in place. The returned index refers to the input
// slice. It is the Dialogue step machine driven by the session's Oracle.
//
// When MaxQuestions questions have been asked and more than one candidate
// remains, the leading candidate's index and the transcript are returned
// together with an error matching qerr.ErrMaxQuestions, so callers can
// distinguish a converged answer from a budget-truncated one.
func (s *Session) ChooseQuery(ctx context.Context, cands []*query.Union) (int, *Transcript, error) {
	if len(cands) == 0 {
		return -1, nil, fmt.Errorf("feedback: no candidates")
	}
	d := s.NewDialogue(cands)
	for {
		q, chosen, err := d.Next(ctx)
		if q == nil {
			if err != nil && !errors.Is(err, qerr.ErrMaxQuestions) {
				return -1, nil, err
			}
			return chosen, d.Transcript(), err
		}
		ans, err := s.Oracle.ShouldInclude(ctx, q)
		if err != nil {
			d.Close("error")
			return -1, nil, err
		}
		d.Answer(ans)
	}
}

// Dialogue is Algorithm 3 as a resumable step machine: Next computes the
// next question (or the outcome) and Answer applies the user's verdict on
// it. It holds the remaining candidates, their Q^all forms, the transcript
// and the pair behind the open question, so a caller can step it one turn
// at a time — ChooseQuery drives it against an Oracle, the service one turn
// per request. Not safe for concurrent use.
type Dialogue struct {
	s         *Session
	cands     []*query.Union
	all       []*query.Union // Q^all forms, derived by the first Next
	remaining []int
	tr        *Transcript

	// q is the question awaiting Answer (nil when none): a result bound to
	// candidate keep's Q^all form and absent from drop's Q^no form. qsp is
	// its feedback.question span, finished by Answer, so the span covers
	// the user's think time like a blocking oracle call would.
	q          *eval.ResultWithProvenance
	keep, drop int
	qsp        *obs.Span
}

// NewDialogue starts Algorithm 3 over cands (non-empty) with the session's
// evaluator, example-set and question budget; its Oracle is not used.
// Nothing is evaluated until the first Next.
func (s *Session) NewDialogue(cands []*query.Union) *Dialogue {
	remaining := make([]int, len(cands))
	for i := range cands {
		remaining[i] = i
	}
	return &Dialogue{s: s, cands: cands, remaining: remaining, tr: &Transcript{}}
}

// Next returns the question awaiting an answer, computing it when none is
// open; asking again without an Answer returns the same question. When
// the dialogue is over it returns a nil question and the chosen candidate
// index — with an error matching qerr.ErrMaxQuestions when the question
// budget ran out first. Any other error leaves the dialogue where it was.
func (d *Dialogue) Next(ctx context.Context) (*eval.ResultWithProvenance, int, error) {
	if d.q != nil {
		return d.q, -1, nil
	}
	if d.all == nil {
		all := make([]*query.Union, len(d.cands))
		for i, c := range d.cands {
			a, err := core.WithDiseqsUnion(ctx, c, d.s.Ex)
			if err != nil {
				return nil, -1, err
			}
			all[i] = a
		}
		d.all = all
	}
	for len(d.remaining) > 1 {
		if max := d.s.MaxQuestions; max > 0 && len(d.tr.Questions) >= max {
			return nil, d.remaining[0], fmt.Errorf(
				"feedback: %d candidates undecided after %d questions: %w",
				len(d.remaining), len(d.tr.Questions), qerr.ErrMaxQuestions)
		}
		i, j := d.remaining[0], d.remaining[1]
		// One question turn, spanning both difference directions and the
		// user's answer (finished by Answer).
		qctx, qsp := obs.StartSpan(ctx, "feedback.question")
		qsp.SetInt("remaining", int64(len(d.remaining)))
		keep, drop := i, j
		res, err := d.s.sample(qctx, d.all[i], d.cands[j].WithoutDiseqs())
		if err == nil && res == nil {
			// Try the reversed difference (Example 5.5's second step).
			keep, drop = j, i
			res, err = d.s.sample(qctx, d.all[j], d.cands[i].WithoutDiseqs())
		}
		if err != nil {
			qsp.SetOutcome("error")
			qsp.Finish()
			return nil, -1, err
		}
		if res == nil {
			// Extensionally equivalent: keep the first, drop the second.
			d.tr.Undistinguished = append(d.tr.Undistinguished, [2]int{i, j})
			d.remaining = removeValue(d.remaining, j)
			qsp.SetOutcome("undistinguished")
			qsp.Finish()
			continue
		}
		d.q, d.keep, d.drop, d.qsp = res, keep, drop, qsp
		return res, -1, nil
	}
	return nil, d.remaining[0], nil
}

// Answer applies the verdict on the open question: include keeps the
// candidate the result was drawn from and drops the other, exclude the
// reverse. It does nothing when no question is open.
func (d *Dialogue) Answer(include bool) {
	if d.q == nil {
		return
	}
	q := Question{Kept: d.keep, Dropped: d.drop, Result: d.q.Value, Answer: include}
	if !include {
		q.Kept, q.Dropped = d.drop, d.keep
	}
	d.tr.Questions = append(d.tr.Questions, q)
	d.remaining = removeValue(d.remaining, q.Dropped)
	d.qsp.SetInt("kept", int64(q.Kept))
	d.qsp.SetInt("dropped", int64(q.Dropped))
	d.qsp.SetOutcome("answered")
	d.qsp.Finish()
	d.q, d.qsp = nil, nil
}

// Close abandons the open question, if any, finishing its span with the
// given outcome. The dialogue must not be stepped afterwards.
func (d *Dialogue) Close(outcome string) {
	if d.q == nil {
		return
	}
	d.qsp.SetOutcome(outcome)
	d.qsp.Finish()
	d.q, d.qsp = nil, nil
}

// Transcript returns the questions asked and the undistinguished pairs so
// far (the dialogue's own record, not a copy).
func (d *Dialogue) Transcript() *Transcript { return d.tr }

// sample runs one difference direction: candidate keep's Q^all form
// against candidate drop's Q^no form. It returns the first difference
// result bound to keepAll with its provenance (SampleRand of Algorithm 3,
// made deterministic), or nil when the difference is empty or evaluating
// it exhausts the search budget (a hopelessly unselective candidate cannot
// be used to pose a question).
func (s *Session) sample(ctx context.Context, keepAll, dropNo *query.Union) (*eval.ResultWithProvenance, error) {
	diff, err := s.Ev.Difference(ctx, keepAll, dropNo)
	if errors.Is(err, eval.ErrBudget) || (err == nil && len(diff) == 0) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return s.Ev.BindAndExplain(ctx, keepAll, diff[0])
}

func removeValue(xs []int, v int) []int {
	out := xs[:0]
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
