package format

import (
	"testing"

	"repro/internal/learn"
)

func TestSignature(t *testing.T) {
	cases := map[string]string{
		"CSE142":         "A393",
		"INFO344":        "A4+93",
		"(206) 523 4719": "(93)_93_94+",
		"$70,000":        "$92,93",
		"3":              "91",
		"yes":            "A3",
		"":               "",
		"a b":            "A1_A1",
	}
	for in, want := range cases {
		if got := Signature(in); got != want {
			t.Errorf("Signature(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSignatureSharedFormats(t *testing.T) {
	// Course codes with 3-letter departments share a signature.
	if Signature("CSE142") != Signature("BIO301") {
		t.Error("course codes should share a signature")
	}
	// Phone numbers share a signature regardless of digits.
	if Signature("(206) 523 4719") != Signature("(305) 729 0831") {
		t.Error("phone numbers should share a signature")
	}
	// A price and a phone number must differ.
	if Signature("$70,000") == Signature("(206) 523 4719") {
		t.Error("price and phone signatures should differ")
	}
}

var labels = []string{"COURSE-CODE", "PRICE", "AGENT-PHONE"}

func ex(content, label string) learn.Example {
	return learn.Example{Instance: learn.Instance{Content: content}, Label: label}
}

func trained(t *testing.T) *Learner {
	t.Helper()
	l := New()
	err := l.Train(labels, []learn.Example{
		ex("CSE142", "COURSE-CODE"),
		ex("MATH126", "COURSE-CODE"),
		ex("BIO301", "COURSE-CODE"),
		ex("$250,000", "PRICE"),
		ex("$1,175,000", "PRICE"),
		ex("(305) 729 0831", "AGENT-PHONE"),
		ex("(617) 253 1429", "AGENT-PHONE"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPredictCourseCode(t *testing.T) {
	l := trained(t)
	// The §7 motivating case: a format learner matches course codes.
	if best, _ := l.Predict(learn.Instance{Content: "CSE586"}).Best(); best != "COURSE-CODE" {
		t.Errorf("Best = %q, want COURSE-CODE", best)
	}
}

func TestPredictPhoneAndPrice(t *testing.T) {
	l := trained(t)
	if best, _ := l.Predict(learn.Instance{Content: "(415) 273 1234"}).Best(); best != "AGENT-PHONE" {
		t.Errorf("phone Best = %q", best)
	}
	if best, _ := l.Predict(learn.Instance{Content: "$320,000"}).Best(); best != "PRICE" {
		t.Errorf("price Best = %q", best)
	}
}

func TestPredictUnseenSignatureSoft(t *testing.T) {
	l := trained(t)
	p := l.Predict(learn.Instance{Content: "totally different kind of value with words"})
	sum := 0.0
	for _, c := range labels {
		sum += p.Score(c)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("prediction not normalized: %v", p)
	}
}

func TestPredictUntrained(t *testing.T) {
	l := New()
	if p := l.Predict(learn.Instance{Content: "x"}); p.Len() != 0 {
		t.Errorf("untrained Predict = %v, want empty", p.Map())
	}
	if err := l.Train(labels, nil); err != nil {
		t.Fatal(err)
	}
	p := l.Predict(learn.Instance{Content: "x"})
	if p.Len() != len(labels) {
		t.Errorf("no-example Predict over %d labels", p.Len())
	}
}

func TestTrainErrors(t *testing.T) {
	l := New()
	if err := l.Train(nil, nil); err == nil {
		t.Error("no labels should error")
	}
	l = New()
	if err := l.Train(labels, []learn.Example{ex("x", "BAD")}); err == nil {
		t.Error("unknown label should error")
	}
}
