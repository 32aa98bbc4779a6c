package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// dirtySrc trips maprangefloat once and carries one justified
// suppression and one malformed directive.
const dirtySrc = `package m

func Bad(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

func Quiet(m map[string]float64) float64 {
	q := 0.0
	for _, v := range m {
		//lint:ignore maprangefloat justified for the format tests
		q += v
	}
	//lint:ignore
	return q
}
`

func TestRunJSONFormat(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": dirtySrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", dir, "-format", "json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d with findings, want 1; stderr: %s", code, errb.String())
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Column  int    `json:"column"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	checks := make(map[string]bool)
	for _, d := range diags {
		if d.File != "a.go" {
			t.Errorf("diagnostic file = %q, want module-relative \"a.go\"", d.File)
		}
		if d.Line < 1 || d.Column < 1 {
			t.Errorf("diagnostic position %d:%d not 1-based", d.Line, d.Column)
		}
		checks[d.Check] = true
	}
	if !checks["maprangefloat"] || !checks["ignore"] {
		t.Errorf("json findings missing expected checks, got %v", checks)
	}

	// A clean tree emits an empty array, not null, and exits 0.
	out.Reset()
	errb.Reset()
	clean := writeModule(t, map[string]string{"a.go": cleanSrc})
	if code := run([]string{"-root", clean, "-format", "json", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on clean tree, want 0", code)
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean json output = %q, want []", got)
	}
}

// TestRunTimedJSON checks -timing -format json: the timings ride
// inside one JSON document (findings, per-analyzer cost, run total)
// instead of going to stderr, so CI can archive the suite's cost
// beside its SARIF log.
func TestRunTimedJSON(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": dirtySrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", dir, "-format", "json", "-timing", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d with findings, want 1; stderr: %s", code, errb.String())
	}
	if strings.Contains(errb.String(), "timing") {
		t.Errorf("timing leaked to stderr in json format: %s", errb.String())
	}
	var doc struct {
		Findings []struct {
			Check string `json:"check"`
		} `json:"findings"`
		Timings []struct {
			Check string  `json:"check"`
			Ms    float64 `json:"ms"`
		} `json:"timings"`
		TotalMs float64 `json:"total_ms"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not the timed JSON object: %v\n%s", err, out.String())
	}
	if len(doc.Findings) == 0 {
		t.Error("timed json has no findings for a dirty tree")
	}
	seen := make(map[string]bool)
	for _, tm := range doc.Timings {
		if tm.Ms < 0 {
			t.Errorf("analyzer %s has negative wall-clock %vms", tm.Check, tm.Ms)
		}
		seen[tm.Check] = true
	}
	for _, want := range []string{"maprangefloat", "confine", "ctxflow", "errflow"} {
		if !seen[want] {
			t.Errorf("timings missing analyzer %s (got %v)", want, seen)
		}
	}
	if doc.TotalMs <= 0 {
		t.Errorf("total_ms = %v, want > 0", doc.TotalMs)
	}
}

// TestRunSARIFValid is the driver acceptance test for -format sarif:
// the emitted log must be well-formed SARIF 2.1.0 with internally
// consistent rule references.
func TestRunSARIFValid(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": dirtySrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", dir, "-format", "sarif", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d with findings, want 1; stderr: %s", code, errb.String())
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version %q schema %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "lsdlint" {
		t.Errorf("driver name %q, want lsdlint", run0.Tool.Driver.Name)
	}
	ruleIdx := make(map[string]int)
	for i, r := range run0.Tool.Driver.Rules {
		if r.ID == "" {
			t.Errorf("rule %d has empty id", i)
		}
		ruleIdx[r.ID] = i
	}
	if len(run0.Results) == 0 {
		t.Fatal("no results despite findings")
	}
	for _, res := range run0.Results {
		idx, ok := ruleIdx[res.RuleID]
		if !ok {
			t.Errorf("result rule %q not declared in rules", res.RuleID)
		} else if idx != res.RuleIndex {
			t.Errorf("result %q ruleIndex %d, want %d", res.RuleID, res.RuleIndex, idx)
		}
		if res.Level != "error" {
			t.Errorf("result level %q, want error", res.Level)
		}
		if res.Message.Text == "" {
			t.Errorf("result %q has empty message", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %q has %d locations, want 1", res.RuleID, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != "a.go" {
			t.Errorf("result uri %q, want relative a.go", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
			t.Errorf("result %q region %d:%d not 1-based", res.RuleID, loc.Region.StartLine, loc.Region.StartColumn)
		}
	}

	// Clean tree: still one run, empty results array, exit 0.
	out.Reset()
	errb.Reset()
	clean := writeModule(t, map[string]string{"a.go": cleanSrc})
	if code := run([]string{"-root", clean, "-format", "sarif", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on clean tree, want 0", code)
	}
	if !strings.Contains(out.String(), `"results": []`) {
		t.Errorf("clean sarif output must contain an empty results array:\n%s", out.String())
	}
}

// TestRunExitCodesAcrossFormats pins the 0/1/2 contract for every
// output format.
func TestRunExitCodesAcrossFormats(t *testing.T) {
	clean := writeModule(t, map[string]string{"a.go": cleanSrc})
	dirty := writeModule(t, map[string]string{"a.go": dirtySrc})
	for _, format := range []string{"text", "json", "sarif"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-root", clean, "-format", format, "./..."}, &out, &errb); code != 0 {
			t.Errorf("format %s: exit %d on clean tree, want 0", format, code)
		}
		if code := run([]string{"-root", dirty, "-format", format, "./..."}, &out, &errb); code != 1 {
			t.Errorf("format %s: exit %d with findings, want 1", format, code)
		}
		if code := run([]string{"-root", clean, "-format", format, "./nope/..."}, &out, &errb); code != 2 {
			t.Errorf("format %s: exit %d for bad pattern, want 2", format, code)
		}
	}
}

func TestRunUnknownFormatExitsTwo(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": cleanSrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", dir, "-format", "xml", "./..."}, &out, &errb); code != 2 {
		t.Errorf("exit %d for unknown format, want 2", code)
	}
}

func TestRunSuppressionsReport(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": dirtySrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", dir, "-suppressions", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d for suppressions report, want 0; stderr: %s", code, errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "maprangefloat: justified for the format tests") {
		t.Errorf("report missing the justified directive:\n%s", text)
	}
	if !strings.Contains(text, "(missing reason)") {
		t.Errorf("report missing the malformed directive:\n%s", text)
	}
	if !strings.Contains(errb.String(), "2 suppression(s)") {
		t.Errorf("stderr summary = %q, want 2 suppression(s)", errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-root", dir, "-suppressions", "-format", "json", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d for json suppressions report, want 0", code)
	}
	var sups []struct {
		File   string `json:"file"`
		Line   int    `json:"line"`
		Check  string `json:"check"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(out.Bytes(), &sups); err != nil {
		t.Fatalf("json report does not parse: %v\n%s", err, out.String())
	}
	if len(sups) != 2 {
		t.Fatalf("json report has %d entries, want 2:\n%s", len(sups), out.String())
	}
	if sups[0].Check != "maprangefloat" || sups[0].Reason == "" {
		t.Errorf("first entry = %+v, want the justified maprangefloat directive", sups[0])
	}
	if sups[1].Reason != "" {
		t.Errorf("malformed directive reason = %q, want empty", sups[1].Reason)
	}

	// SARIF has no notion of a suppression inventory; reject it.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-root", dir, "-suppressions", "-format", "sarif", "./..."}, &out, &errb); code != 2 {
		t.Errorf("exit %d for -suppressions -format sarif, want 2", code)
	}
}
