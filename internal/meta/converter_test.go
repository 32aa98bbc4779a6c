package meta

import (
	"math"
	"testing"

	"repro/internal/learn"
)

func TestConvertAveragePaperExample(t *testing.T) {
	// §3.2: three instance predictions for column "area" average to
	// ⟨ADDRESS:0.7, DESCRIPTION:0.163, AGENT-PHONE:0.137⟩.
	preds := []learn.Prediction{
		pred(map[string]float64{"ADDRESS": 0.7, "DESCRIPTION": 0.2, "AGENT-PHONE": 0.1}),
		pred(map[string]float64{"ADDRESS": 0.5, "DESCRIPTION": 0.2, "AGENT-PHONE": 0.3}),
		pred(map[string]float64{"ADDRESS": 0.9, "DESCRIPTION": 0.09, "AGENT-PHONE": 0.01}),
	}
	got := Convert(Average, table, preds)
	if math.Abs(got.Score("ADDRESS")-0.7) > 1e-9 {
		t.Errorf("ADDRESS = %g, want 0.7", got.Score("ADDRESS"))
	}
	if math.Abs(got.Score("DESCRIPTION")-0.49/3) > 1e-9 {
		t.Errorf("DESCRIPTION = %g, want %g", got.Score("DESCRIPTION"), 0.49/3)
	}
	if math.Abs(got.Score("AGENT-PHONE")-0.41/3) > 1e-9 {
		t.Errorf("AGENT-PHONE = %g, want %g", got.Score("AGENT-PHONE"), 0.41/3)
	}
}

func TestConvertMax(t *testing.T) {
	preds := []learn.Prediction{
		pred(map[string]float64{"ADDRESS": 0.2, "DESCRIPTION": 0.8, "AGENT-PHONE": 0.0}),
		pred(map[string]float64{"ADDRESS": 0.6, "DESCRIPTION": 0.1, "AGENT-PHONE": 0.3}),
	}
	got := Convert(Max, table, preds)
	// Max per label: 0.6, 0.8, 0.3 -> normalized.
	if best, _ := got.Best(); best != "DESCRIPTION" {
		t.Errorf("Max Best = %q", best)
	}
	sum := got.Score("ADDRESS") + got.Score("DESCRIPTION") + got.Score("AGENT-PHONE")
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Max not normalized: %g", sum)
	}
}

func TestConvertEmptyColumn(t *testing.T) {
	got := Convert(Average, table, nil)
	for _, c := range labels {
		if math.Abs(got.Score(c)-1.0/3) > 1e-9 {
			t.Errorf("empty column not uniform: %v", got.Map())
		}
	}
}

func TestConvertSingleInstance(t *testing.T) {
	p := pred(map[string]float64{"ADDRESS": 0.7, "DESCRIPTION": 0.2, "AGENT-PHONE": 0.1})
	got := Convert(Average, table, []learn.Prediction{p})
	for _, c := range labels {
		if math.Abs(got.Score(c)-p.Score(c)) > 1e-9 {
			t.Errorf("single instance changed: %v vs %v", got.Map(), p.Map())
		}
	}
}
