package xmllearner

import (
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/xmltree"
)

// tagLabeler maps source tags to labels through a fixed table, playing
// the role of the user's 1-1 mappings during training.
type tagLabeler map[string]string

func (m tagLabeler) label(n *xmltree.Node) string {
	if l, ok := m[n.Tag]; ok {
		return l
	}
	return n.Tag
}

func node(t *testing.T, s string) *xmltree.Node {
	t.Helper()
	n, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

var mapping = tagLabeler{
	"name":  "AGENT-NAME",
	"firm":  "OFFICE-NAME",
	"phone": "AGENT-PHONE",
}

// inst builds the instance of n. It carries no sub-element labels, so
// Predict keeps the tags below n verbatim.
func inst(n *xmltree.Node) learn.Instance {
	return learn.Instance{TagName: n.Tag, Content: n.Content(), Node: n,
		Path: []string{n.Tag}}
}

// labelled is inst(n) with every node below n labelled by m, as a
// match labels the sub-elements of its instances.
func labelled(n *xmltree.Node, m tagLabeler) learn.Instance {
	in := inst(n)
	in.SubLabels = make(map[*xmltree.Node]string)
	n.Walk(func(d *xmltree.Node, _ []string) {
		if d != n {
			in.SubLabels[d] = m.label(d)
		}
	})
	return in
}

// TestTokenBagFigure7 reproduces Figure 7.d-f: the contact element's
// bag must contain the text, node, and edge tokens the paper lists.
func TestTokenBagFigure7(t *testing.T) {
	contact := node(t, `<contact><name>Gail Murphy</name><firm>MAX Realtors</firm></contact>`)
	l := New(mapping.label)
	bag := l.TokenBag(inst(contact), mapping.label)

	for _, want := range []string{
		"w:gail", "w:murphi", // stemmed text tokens
		"n:AGENT-NAME", "n:OFFICE-NAME", // node tokens
		"e:d>AGENT-NAME", "e:d>OFFICE-NAME", // edge tokens from generic root
		"e:AGENT-NAME>gail", "e:OFFICE-NAME>realtor", // label -> word edges
	} {
		if bag[want] == 0 {
			t.Errorf("bag missing token %q; bag = %v", want, bag)
		}
	}
	// The source root tag must have been replaced with the generic root:
	// no token mentions "contact".
	for tok := range bag {
		if strings.Contains(tok, "contact") {
			t.Errorf("bag leaks source root tag: %q", tok)
		}
	}
}

func TestTokenBagFlatInstance(t *testing.T) {
	l := New(nil)
	bag := l.TokenBag(learn.Instance{Content: "great house"}, nil)
	if bag["w:great"] == 0 || bag["w:hous"] == 0 {
		t.Errorf("flat bag = %v", bag)
	}
}

// TestDistinguishesSharedVocabulary reproduces the motivation of §5:
// classes that share words (CONTACT-INFO vs DESCRIPTION embedding the
// same names) are separable through structure tokens even when flat
// Naive Bayes cannot tell them apart.
func TestDistinguishesSharedVocabulary(t *testing.T) {
	labels := []string{"CONTACT-INFO", "DESCRIPTION"}
	var examples []learn.Example
	names := [][2]string{
		{"Gail Murphy", "MAX Realtors"},
		{"Mike Smith", "ACME Homes"},
		{"Jane Kendall", "Best Realty"},
		{"Matt Richardson", "Star Estates"},
	}
	for _, nm := range names {
		contact := xmltree.NewParent("contact",
			xmltree.New("name", nm[0]), xmltree.New("firm", nm[1]))
		examples = append(examples, learn.Example{Instance: inst(contact), Label: "CONTACT-INFO"})
		// Descriptions mention the very same people and firms, but flat.
		desc := xmltree.New("description",
			"Lovely house. To see it, contact "+nm[0]+" at "+nm[1]+".")
		examples = append(examples, learn.Example{Instance: inst(desc), Label: "DESCRIPTION"})
	}
	l := New(mapping.label)
	if err := l.Train(labels, examples); err != nil {
		t.Fatal(err)
	}

	probeContact := node(t, `<contact-info><name>Ken Adams</name><firm>Blue Sky Realty</firm></contact-info>`)
	if best, _ := l.Predict(labelled(probeContact, mapping)).Best(); best != "CONTACT-INFO" {
		t.Errorf("structured probe Best = %q, want CONTACT-INFO", best)
	}
	probeDesc := xmltree.New("extra-info", "Wonderful home, contact Ken Adams at Blue Sky Realty")
	if best, _ := l.Predict(labelled(probeDesc, mapping)).Best(); best != "DESCRIPTION" {
		t.Errorf("flat probe Best = %q, want DESCRIPTION", best)
	}
}

// trainWaterfront trains a learner on houses that differ only in the
// tag around "yes": a waterfront marks WATER-VIEW, a fireplace
// HAS-FIREPLACE.
func trainWaterfront(t *testing.T) *Learner {
	t.Helper()
	labels := []string{"WATER-VIEW", "HAS-FIREPLACE"}
	mapper := tagLabeler{"waterfront": "WATERFRONT", "fireplace": "FIREPLACE"}
	var examples []learn.Example
	for i := 0; i < 5; i++ {
		w := node(t, `<house><waterfront>yes</waterfront></house>`)
		examples = append(examples, learn.Example{Instance: inst(w), Label: "WATER-VIEW"})
		f := node(t, `<house><fireplace>yes</fireplace></house>`)
		examples = append(examples, learn.Example{Instance: inst(f), Label: "HAS-FIREPLACE"})
	}
	l := New(mapper.label)
	if err := l.Train(labels, examples); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestEdgeTokensDiscriminate reproduces the WATERFRONT->"yes" example:
// the same leaf word under different parents must produce different
// edge tokens.
func TestEdgeTokensDiscriminate(t *testing.T) {
	l := trainWaterfront(t)
	probe := node(t, `<listing><waterfront>yes</waterfront></listing>`)
	mapper := tagLabeler{"waterfront": "WATERFRONT"}
	if best, _ := l.Predict(labelled(probe, mapper)).Best(); best != "WATER-VIEW" {
		t.Errorf("Best = %q, want WATER-VIEW (edge token should discriminate)", best)
	}
}

// TestPredictReadsSubLabels: Predict labels each sub-element with the
// label its instance carries, not with the training labeler. The
// waterfront probe reads as a fireplace when its sub-element is
// labelled FIREPLACE.
func TestPredictReadsSubLabels(t *testing.T) {
	l := trainWaterfront(t)
	probe := node(t, `<listing><waterfront>yes</waterfront></listing>`)
	for label, want := range map[string]string{"WATERFRONT": "WATER-VIEW", "FIREPLACE": "HAS-FIREPLACE"} {
		in := inst(probe)
		in.SubLabels = map[*xmltree.Node]string{probe.Children[0]: label}
		if best, _ := l.Predict(in).Best(); best != want {
			t.Errorf("sub-element labelled %s: Best = %q, want %s", label, best, want)
		}
	}
}

func TestTrainNoLabels(t *testing.T) {
	l := New(nil)
	if err := l.Train(nil, nil); err == nil {
		t.Error("Train with no labels should error")
	}
}

func TestNilLabelerKeepsTags(t *testing.T) {
	l := New(nil)
	contact := node(t, `<contact><name>Gail</name></contact>`)
	bag := l.TokenBag(inst(contact), nil)
	if bag["e:name>gail"] == 0 {
		t.Errorf("nil labeler should keep source tags: %v", bag)
	}
	if bag["n:name"] != 0 {
		t.Errorf("nil labeler should not emit node tokens for leaves: %v", bag)
	}
}

func TestDeepNesting(t *testing.T) {
	deep := node(t, `<listing><agent><office><addr>12 Main</addr></office></agent></listing>`)
	mapper := tagLabeler{"agent": "AGENT-INFO", "office": "OFFICE-INFO", "addr": "OFFICE-ADDRESS"}
	l := New(mapper.label)
	bag := l.TokenBag(inst(deep), mapper.label)
	for _, want := range []string{
		"e:d>AGENT-INFO", "e:AGENT-INFO>OFFICE-INFO", "e:OFFICE-INFO>OFFICE-ADDRESS",
		"n:AGENT-INFO", "n:OFFICE-INFO", "n:OFFICE-ADDRESS",
		"w:12", "w:main", "e:OFFICE-ADDRESS>main",
	} {
		if bag[want] == 0 {
			t.Errorf("deep bag missing %q; bag = %v", want, bag)
		}
	}
}
