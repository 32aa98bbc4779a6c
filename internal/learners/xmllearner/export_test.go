package xmllearner

import (
	"repro/internal/learn"
	"repro/internal/text"
	"repro/internal/xmltree"
)

// Vocab returns the trained vocabulary.
func (l *Learner) Vocab() *text.Vocab { return l.nb.Vocab() }

// SparseBag is sparseBag, the id bag Predict scores.
func (l *Learner) SparseBag(in learn.Instance, labeler func(*xmltree.Node) string) text.SparseBag {
	return l.sparseBag(in, labeler)
}

// PredictBag scores a string token bag with the learner's model: the
// string path Predict must agree with.
func (l *Learner) PredictBag(bag text.Bag) learn.Prediction { return l.nb.PredictBag(bag) }
