package meta

import "repro/internal/learn"

// ConverterMode selects how the prediction converter collapses the
// instance-level predictions of a source tag's column into one
// prediction for the tag.
type ConverterMode int

const (
	// Average computes the mean score of each label over the column —
	// the paper's converter ("Currently, the prediction converter
	// simply computes the average score of each label", §3.2).
	Average ConverterMode = iota
	// Max takes the maximum score of each label over the column; kept
	// as an ablation alternative.
	Max
)

// Convert collapses the predictions of all data instances in a column
// into a single prediction for the column's source tag. An empty column
// yields the uniform prediction over labels. The predictions must be
// over labels (an empty one counts as all zeros); Convert panics on
// another table.
func Convert(mode ConverterMode, labels *learn.Labels, preds []learn.Prediction) learn.Prediction {
	if len(preds) == 0 {
		return learn.Uniform(labels)
	}
	scores := make([]float64, labels.Len())
	switch mode {
	case Max:
		for _, p := range preds {
			row := p.In(labels)
			for id := range scores {
				if s := row.At(id); s > scores[id] {
					scores[id] = s
				}
			}
		}
	default:
		// Each label's running average adds the column's scores in
		// instance order.
		n := float64(len(preds))
		for _, p := range preds {
			row := p.In(labels)
			for id := range scores {
				scores[id] += row.At(id) / n
			}
		}
	}
	return learn.Normalized(labels, scores)
}
