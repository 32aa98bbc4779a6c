package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/learn"
	"repro/internal/meta"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// span is one timed call into a layer. Spans of one request share its
// sequence position; a root span has parent -1.
type span struct {
	Request int     `json:"request"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin  time.Time
	request int
	spans   []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		Request: t.request, ID: len(t.spans), Parent: parent, Name: name,
		StartUS: float64(time.Since(t.origin).Nanoseconds()) / 1e3,
	})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndUS = float64(time.Since(t.origin).Nanoseconds()) / 1e3
	return time.Duration((s.EndUS - s.StartUS) * 1e3)
}

// tracedRequest is what the traced run measured for one request.
type tracedRequest struct {
	production, decode, dtdParse, xmlParse, match, encode time.Duration
	collect, constraintSource, handler                    time.Duration
	// learners is aligned with the model's learner names.
	learners         []time.Duration
	combine, convert time.Duration

	requestBytes, tags, listings, nodes int
	instances, unique                   int
	expansions                          int
	complete                            bool
}

// traceRun replays len(shares) requests from sequence position next
// through each layer's public functions, in the serve handler's order,
// then re-times the cache-free stages on the same inputs and probes the
// learners, the stacker and the converter on a second copy of the
// model. shares are the requests' repeat shares. It adds the per-layer
// metrics to r, writes the spans and returns the production path's
// median time in milliseconds.
func traceRun(ctx context.Context, opts options, w *workload, in *inputs, dep *deployment, chk *checker,
	next int, shares []float64, r *report) (float64, error) {
	seqs := make([]int, len(shares))
	for i := range seqs {
		seqs[i] = next + i
	}
	if err := chk.learn(ctx, seqs); err != nil {
		return 0, err
	}
	d, err := artifact.Decode(dep.artifact)
	if err != nil {
		return 0, err
	}
	med, handler, err := matchingSetup(d.State)
	if err != nil {
		return 0, err
	}

	tr := &tracer{origin: time.Now()}
	reqs := make([]tracedRequest, len(seqs))
	for i, seq := range seqs {
		tr.request = seq
		body := in.bodies[in.sampleOf(seq)]
		res, src, err := tracedServe(ctx, tr, dep.model, body, &reqs[i])
		if err != nil {
			return 0, fmt.Errorf("traced request %d: %w", seq, err)
		}
		if want := chk.want[in.sampleOf(seq)]; !reflect.DeepEqual(map[string]string(res.Mapping), want) {
			return 0, fmt.Errorf("traced request %d: mapping %v, want %v", seq, res.Mapping, want)
		}
		cols, err := replay(ctx, tr, med, handler, src, res, d.State.Config.MaxListings, &reqs[i])
		if err != nil {
			return 0, fmt.Errorf("traced request %d: %w", seq, err)
		}
		if err := probe(tr, dep.artifact, src, cols, &reqs[i]); err != nil {
			return 0, fmt.Errorf("traced request %d: %w", seq, err)
		}
	}
	if err := writeSpans(opts, w, tr.spans); err != nil {
		return 0, err
	}
	return layerReport(r, reqs, d.State.Names, shares), nil
}

// matchingSetup rebuilds, from the artifact's state, what the served
// system's matching phase uses: the mediated schema with its synonyms
// and constraints, and a default constraint handler over them (an
// artifact carries no handler tuning, so the served system uses the
// defaults too).
func matchingSetup(st *core.SystemState) (*core.Mediated, *constraint.Handler, error) {
	schema, err := dtd.Parse(st.MediatedDTD)
	if err != nil {
		return nil, nil, fmt.Errorf("mediated DTD: %w", err)
	}
	med := &core.Mediated{Schema: schema, Synonyms: st.Synonyms}
	for _, spec := range st.ConstraintSpecs {
		c, err := constraint.FromSpec(spec)
		if err != nil {
			return nil, nil, err
		}
		med.Constraints = append(med.Constraints, c)
	}
	return med, constraint.NewHandler(med.Constraints...), nil
}

// tracedServe does the serve handler's steps in its order: decode the
// request, parse the DTD and the listings, match on the served model
// and encode the reply.
func tracedServe(ctx context.Context, tr *tracer, model *serve.Model, body []byte, m *tracedRequest) (*core.MatchResult, *core.Source, error) {
	root := tr.begin("request", -1)
	s := tr.begin("serve.decode", root)
	req, err := decodeRequest(body)
	m.decode = tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin("dtd.parse", root)
	schema, err := dtd.Parse(req.DTD)
	m.dtdParse = tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin("xmltree.parse", root)
	listings, err := xmltree.ParseAll(strings.NewReader(req.XML))
	m.xmlParse = tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	src := &core.Source{Name: req.SourceName, Schema: schema, Listings: listings}
	s = tr.begin("core.match", root)
	res, err := model.System().WithWorkers(1).Match(ctx, src)
	m.match = tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin("serve.encode", root)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err = enc.Encode(serve.MatchResponse{
		Model: model.Name, Checksum: model.Checksum, SourceName: req.SourceName,
		Mapping: res.Mapping, Partial: res.Partial,
	})
	m.encode = tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	m.production = tr.end(root)

	m.requestBytes = len(body)
	m.tags = len(schema.Tags())
	m.listings = len(listings)
	for _, l := range listings {
		m.nodes += l.Size()
	}
	if res.Handler != nil {
		m.expansions = res.Handler.Expansions
		m.complete = res.Handler.Complete
	}
	return res, src, nil
}

// replay re-times the cache-free matching stages on the request's
// source: column collection, the constraint handler's source view, and
// the handler itself on the match's tag predictions, which must
// reproduce the served mapping.
func replay(ctx context.Context, tr *tracer, med *core.Mediated, h *constraint.Handler, src *core.Source,
	res *core.MatchResult, maxListings int, m *tracedRequest) (map[string][]learn.Instance, error) {
	root := tr.begin("replay", -1)
	defer tr.end(root)
	s := tr.begin("core.collect", root)
	cols, err := core.CollectColumns(ctx, med, src, maxListings)
	m.collect = tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("core.constraint_source", root)
	csrc := core.BuildConstraintSource(src, cols, maxListings)
	m.constraintSource = tr.end(s)
	s = tr.begin("constraint.run", root)
	hres, err := h.Run(csrc, res.TagPredictions)
	m.handler = tr.end(s)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(hres.Mapping, res.Mapping) {
		return nil, fmt.Errorf("handler replay mapping %v differs from the match's %v", hres.Mapping, res.Mapping)
	}
	return cols, nil
}

// probe scores the request's unique instances with each learner
// (learn.PredictAll, one batch per tag as System.Match forms them),
// combines them with the stacker and converts each tag's column. It
// runs on a copy freshly decoded from the artifact, so it never warms
// the served model's caches and always measures the learners' work.
func probe(tr *tracer, data []byte, src *core.Source, cols map[string][]learn.Instance, m *tracedRequest) error {
	root := tr.begin("probe", -1)
	defer tr.end(root)
	d, err := artifact.Decode(data)
	if err != nil {
		return err
	}
	// Building the system wires the XML learner to its interim ensemble.
	if _, err := d.System(1); err != nil {
		return err
	}
	st := d.State

	tags := src.Schema.Tags()
	uniq := make([][]learn.Instance, len(tags))
	pos := make([][]int, len(tags))
	for ti, tag := range tags {
		batch := cols[tag]
		if len(batch) == 0 {
			batch = []learn.Instance{{TagName: tag, Path: src.Schema.PathFromRoot(tag)}}
		}
		m.instances += len(batch)
		idx := make(map[string]int, len(batch))
		for _, ins := range batch {
			key := leafKey(tag, ins.Path, "")
			if ins.Node != nil {
				key = instanceKey(ins.Node, ins.Path)
			}
			u, ok := idx[key]
			if !ok {
				u = len(uniq[ti])
				idx[key] = u
				uniq[ti] = append(uniq[ti], ins)
			}
			pos[ti] = append(pos[ti], u)
		}
		m.unique += len(uniq[ti])
	}

	perLearner := make([][][]learn.Prediction, len(st.Learners))
	m.learners = make([]time.Duration, len(st.Learners))
	for j, l := range st.Learners {
		s := tr.begin("learn."+st.Names[j], root)
		perLearner[j] = make([][]learn.Prediction, len(tags))
		for ti := range tags {
			perLearner[j][ti] = learn.PredictAll(l, uniq[ti])
		}
		m.learners[j] = tr.end(s)
	}

	s := tr.begin("meta.combine", root)
	combined := make([][]learn.Prediction, len(tags))
	base := make([]learn.Prediction, len(st.Learners))
	for ti := range tags {
		combined[ti] = make([]learn.Prediction, len(uniq[ti]))
		for u := range uniq[ti] {
			for j := range base {
				base[j] = perLearner[j][ti][u]
			}
			combined[ti][u] = st.Stacker.Combine(base)
		}
	}
	m.combine = tr.end(s)

	columns := make([][]learn.Prediction, len(tags))
	for ti := range tags {
		columns[ti] = make([]learn.Prediction, len(pos[ti]))
		for i, u := range pos[ti] {
			columns[ti][i] = combined[ti][u]
		}
	}
	s = tr.begin("meta.convert", root)
	for ti := range tags {
		meta.Convert(st.Config.Converter, st.Labels, columns[ti])
	}
	m.convert = tr.end(s)
	return nil
}

// layerReport reduces the traced requests to the per-layer metrics,
// medians for times and means for counts and shares, and returns the
// production path's median time in milliseconds.
func layerReport(r *report, reqs []tracedRequest, learners []string, shares []float64) float64 {
	med := func(f func(*tracedRequest) float64) float64 {
		vs := make([]float64, len(reqs))
		for i := range reqs {
			vs[i] = f(&reqs[i])
		}
		sort.Float64s(vs)
		return vs[(len(vs)-1)/2]
	}
	avg := func(f func(*tracedRequest) float64) float64 {
		vs := make([]float64, len(reqs))
		for i := range reqs {
			vs[i] = f(&reqs[i])
		}
		return mean(vs)
	}
	r.add("serve.decode_ms", med(func(m *tracedRequest) float64 { return ms(m.decode) }), "ms")
	r.add("serve.encode_ms", med(func(m *tracedRequest) float64 { return ms(m.encode) }), "ms")
	r.add("serve.request_kb", avg(func(m *tracedRequest) float64 { return float64(m.requestBytes) / 1024 }), "KB")
	r.add("dtd.parse_ms", med(func(m *tracedRequest) float64 { return ms(m.dtdParse) }), "ms")
	r.add("dtd.source_tags", avg(func(m *tracedRequest) float64 { return float64(m.tags) }), "count")
	r.add("xmltree.parse_ms", med(func(m *tracedRequest) float64 { return ms(m.xmlParse) }), "ms")
	r.add("xmltree.nodes", avg(func(m *tracedRequest) float64 { return float64(m.nodes) }), "count")
	r.add("xmltree.listings", avg(func(m *tracedRequest) float64 { return float64(m.listings) }), "count")
	r.add("core.match_ms", med(func(m *tracedRequest) float64 { return ms(m.match) }), "ms")
	r.add("core.collect_ms", med(func(m *tracedRequest) float64 { return ms(m.collect) }), "ms")
	r.add("core.constraint_source_ms", med(func(m *tracedRequest) float64 { return ms(m.constraintSource) }), "ms")
	r.add("core.score_ms", med(func(m *tracedRequest) float64 {
		return ms(m.match - m.collect - m.constraintSource - m.handler)
	}), "ms")
	r.add("core.instances", avg(func(m *tracedRequest) float64 { return float64(m.instances) }), "count")
	r.add("core.unique_instances", avg(func(m *tracedRequest) float64 { return float64(m.unique) }), "count")
	r.add("core.repeat_share", mean(shares), "ratio")
	for j, name := range learners {
		r.add("learn."+name+".us_per_instance", med(func(m *tracedRequest) float64 {
			return float64(m.learners[j].Nanoseconds()) / 1e3 / float64(m.unique)
		}), "us")
	}
	r.add("meta.combine_us_per_instance", med(func(m *tracedRequest) float64 {
		return float64(m.combine.Nanoseconds()) / 1e3 / float64(m.unique)
	}), "us")
	r.add("meta.convert_us_per_tag", med(func(m *tracedRequest) float64 {
		return float64(m.convert.Nanoseconds()) / 1e3 / float64(m.tags)
	}), "us")
	r.add("constraint.run_ms", med(func(m *tracedRequest) float64 { return ms(m.handler) }), "ms")
	r.add("constraint.expansions", avg(func(m *tracedRequest) float64 { return float64(m.expansions) }), "count")
	r.add("constraint.complete_share", avg(func(m *tracedRequest) float64 {
		if m.complete {
			return 1
		}
		return 0
	}), "ratio")
	return med(func(m *tracedRequest) float64 { return ms(m.production) })
}

// writeSpans writes the traced run's spans, stamped with the machine.
func writeSpans(opts options, w *workload, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(opts.spans), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Stamp    string `json:"stamp"`
		Spans    []span `json:"spans"`
	}{w.name, opts.seed, machineStamp(opts.seed), spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(opts.spans, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
