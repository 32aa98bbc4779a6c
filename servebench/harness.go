package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// maxResponseBytes bounds how much of one reply the client reads; a
// mapping-only reply is a few kilobytes.
const maxResponseBytes = 8 << 20

// deployment is one set-up's result: the served model behind a
// loopback listener, the client connected to it, and the artifact the
// model was decoded from.
type deployment struct {
	artifact []byte
	model    *serve.Model
	srv      *http.Server
	served   chan error
	client   *client
	timing   setupTiming
}

// setupTiming splits one set-up into its stages.
type setupTiming struct {
	train, encode, decode, warmup, total time.Duration
}

// deploy runs one set-up: core.Train through artifact.EncodeSystem,
// artifact.Decode, serve.ModelFromDecoded, listener start and the
// warm-up requests. It returns the warm-up replies unchecked, so that
// checking stays outside the set-up time.
func deploy(ctx context.Context, cfg core.Config, in *inputs, warmups int, replies *arena) (*deployment, []reply, error) {
	start := time.Now()
	sys, err := core.Train(in.mediated, in.train, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("training: %w", err)
	}
	trained := time.Now()
	data, err := artifact.EncodeSystem(modelName, sys)
	if err != nil {
		return nil, nil, fmt.Errorf("encoding artifact: %w", err)
	}
	encoded := time.Now()
	d, err := artifact.Decode(data)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding artifact: %w", err)
	}
	model, err := serve.ModelFromDecoded(d, 0)
	if err != nil {
		return nil, nil, err
	}
	decoded := time.Now()
	reg := serve.NewRegistry()
	reg.Set(model)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listening: %w", err)
	}
	srv := &http.Server{Handler: serve.NewServer(reg, serve.Options{}).Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	dep := &deployment{
		artifact: data,
		model:    model,
		srv:      srv,
		served:   served,
		client:   newClient("http://"+ln.Addr().String()+"/v1/match", replies),
	}
	listening := time.Now()
	warm := make([]reply, warmups)
	for i := range warm {
		warm[i] = dep.client.post(ctx, i, in.bodies[in.sampleOf(i)])
	}
	done := time.Now()
	dep.timing = setupTiming{
		train:  trained.Sub(start),
		encode: encoded.Sub(trained),
		decode: decoded.Sub(encoded),
		warmup: done.Sub(listening),
		total:  done.Sub(start),
	}
	return dep, warm, nil
}

// stop closes the listener and every connection and waits for the
// server's accept loop to return.
func (d *deployment) stop() error {
	d.client.close()
	err := d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// client is the closed-loop client: one goroutine, one keep-alive
// connection, each request sent only after the previous reply was read.
type client struct {
	http *http.Client
	url  string
	// replies holds the reply bodies read so far.
	replies *arena
}

func newClient(url string, replies *arena) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		url:     url,
		replies: replies,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one request's outcome as the client saw it.
type reply struct {
	// seq is the request's position in the run's sequence.
	seq     int
	status  int
	body    []byte
	err     error
	latency time.Duration
}

// post sends one match request and reads the whole reply. The latency
// runs from sending the request to reading the last byte.
func (c *client) post(ctx context.Context, seq int, body []byte) reply {
	r := reply{seq: seq}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	var buf []byte
	if n := resp.ContentLength; n > 0 && n <= maxResponseBytes {
		buf = c.replies.alloc(int(n))
	}
	if buf != nil {
		_, r.err = io.ReadFull(resp.Body, buf)
		r.body = buf
	} else {
		r.body, r.err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	}
	r.latency = time.Since(start)
	r.status = resp.StatusCode
	if cerr := resp.Body.Close(); r.err == nil {
		r.err = cerr
	}
	return r
}

// checked is the check of one reply.
type checked struct {
	ok bool
	// why says what was wrong when ok is false.
	why string
	// accuracy is the served mapping's share of matchable tags mapped
	// to their true label.
	accuracy float64
}

// checker holds the expected mapping of every sample a run posts. It
// matches each distinct sample once, with System.Match on a copy
// decoded separately from the served artifact; by the determinism
// contract the served mapping must equal it.
type checker struct {
	artifact []byte
	in       *inputs
	// want is the expected mapping by sample index.
	want map[int]map[string]string
}

func newChecker(data []byte, in *inputs) *checker {
	return &checker{artifact: data, in: in, want: make(map[int]map[string]string)}
}

// learn matches, concurrently, every sample the given sequence
// positions post that the checker has not matched yet. It decodes its
// copy of the model for the purpose and drops it afterwards, so the
// copy is never live during a timed phase.
func (c *checker) learn(ctx context.Context, seqs []int) error {
	var todo []int
	for _, seq := range seqs {
		s := c.in.sampleOf(seq)
		if _, ok := c.want[s]; !ok {
			c.want[s] = nil
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	d, err := artifact.Decode(c.artifact)
	if err != nil {
		return fmt.Errorf("decoding checker copy: %w", err)
	}
	sys, err := d.System(1)
	if err != nil {
		return err
	}
	mappings, err := parallel.Map(ctx, 0, len(todo), func(ctx context.Context, i int) (map[string]string, error) {
		src, err := sourceOf(c.in.bodies[todo[i]])
		if err != nil {
			return nil, err
		}
		res, err := sys.Match(ctx, src)
		if err != nil {
			return nil, err
		}
		return map[string]string(res.Mapping), nil
	})
	if err != nil {
		return fmt.Errorf("computing expected mappings: %w", err)
	}
	for i, s := range todo {
		c.want[s] = mappings[i]
	}
	return nil
}

// check checks every reply: a reply fails if the request errored, the
// status is not 200, the body does not decode, or the mapping differs
// from the expected one. The result is aligned with replies; the error
// describes the first failure, or is nil.
func (c *checker) check(ctx context.Context, replies []reply) ([]checked, error) {
	seqs := make([]int, len(replies))
	for i, r := range replies {
		seqs[i] = r.seq
	}
	if err := c.learn(ctx, seqs); err != nil {
		return nil, err
	}
	out := make([]checked, len(replies))
	var first error
	for i, r := range replies {
		out[i] = checkReply(r, c.want[c.in.sampleOf(r.seq)], c.in.truth)
		if !out[i].ok && first == nil {
			first = fmt.Errorf("request %d: %s", r.seq, out[i].why)
		}
	}
	return out, first
}

// checkReply compares one reply with the expected mapping.
func checkReply(r reply, want map[string]string, truth *core.Source) checked {
	switch {
	case r.err != nil:
		return checked{why: r.err.Error()}
	case r.status != http.StatusOK:
		return checked{why: fmt.Sprintf("status %d: %.200s", r.status, r.body)}
	}
	var resp serve.MatchResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return checked{why: fmt.Sprintf("undecodable reply: %v", err)}
	}
	if !reflect.DeepEqual(resp.Mapping, want) {
		return checked{why: fmt.Sprintf("mapping %v, want %v", resp.Mapping, want)}
	}
	return checked{ok: true, accuracy: core.Accuracy(truth, resp.Mapping)}
}

// decodeRequest decodes a request body the way the serve handler does.
func decodeRequest(body []byte) (*serve.MatchRequest, error) {
	var req serve.MatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return &req, nil
}

// sourceOf decodes a request body and parses the source it carries.
func sourceOf(body []byte) (*core.Source, error) {
	req, err := decodeRequest(body)
	if err != nil {
		return nil, err
	}
	return parseSource(req)
}

// parseSource builds the source a request carries, as the serve
// handler does: dtd.Parse, then xmltree.ParseAll.
func parseSource(req *serve.MatchRequest) (*core.Source, error) {
	schema, err := dtd.Parse(req.DTD)
	if err != nil {
		return nil, fmt.Errorf("source DTD: %w", err)
	}
	listings, err := xmltree.ParseAll(strings.NewReader(req.XML))
	if err != nil {
		return nil, fmt.Errorf("source XML: %w", err)
	}
	return &core.Source{Name: req.SourceName, Schema: schema, Listings: listings}, nil
}
