package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/modeltest"
	"repro/internal/xmltree"
)

// newTestServer loads one "houses" model and returns the pieces tests
// poke at.
func newTestServer(t testing.TB) (*Registry, *Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	path := modeltest.WriteArtifact(t, dir, "houses")
	reg := NewRegistry()
	if _, err := reg.LoadFile(path, 1); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	srv := NewServer(reg, Options{MaxWorkers: 4, AdminDir: dir})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return reg, srv, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Models != 1 {
		t.Fatalf("healthz = %+v, want ok/1", body)
	}
}

func TestModelsList(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Models) != 1 {
		t.Fatalf("models = %+v, want one entry", body.Models)
	}
	m := body.Models[0]
	if m.Name != "houses" || m.FormatVersion != artifact.FormatVersion || m.Checksum == "" {
		t.Errorf("model info = %+v", m)
	}
	if len(m.Labels) != len(modeltest.Labels()) {
		t.Errorf("labels = %v, want %v", m.Labels, modeltest.Labels())
	}
}

// matchDirect runs the same request against the in-process system.
func matchDirect(t testing.TB, workers int) *core.MatchResult {
	t.Helper()
	sys, err := core.FromState(modeltest.State(t), workers)
	if err != nil {
		t.Fatalf("FromState: %v", err)
	}
	schema, err := dtd.Parse(modeltest.SourceDTD)
	if err != nil {
		t.Fatal(err)
	}
	listings, err := xmltree.ParseAll(strings.NewReader(modeltest.SourceXML))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Match(context.Background(), &core.Source{Name: "test", Schema: schema, Listings: listings})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	return res
}

func TestMatchHandler(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/match", MatchRequest{
		Model: "houses",
		DTD:   modeltest.SourceDTD,
		XML:   modeltest.SourceXML,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got MatchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := matchDirect(t, 1)
	if len(got.Mapping) == 0 {
		t.Fatal("empty mapping")
	}
	if fmt.Sprint(got.Mapping) != fmt.Sprint(map[string]string(want.Mapping)) {
		t.Errorf("served mapping %v, want %v", got.Mapping, want.Mapping)
	}
	// The served predictions must be bit-identical to the in-process
	// matcher's: JSON's shortest-round-trip float encoding preserves
	// every bit.
	if len(got.Predictions) != len(want.TagPredictions) {
		t.Fatalf("predictions for %d tags, want %d", len(got.Predictions), len(want.TagPredictions))
	}
	for tag, wp := range want.TagPredictions {
		gp := got.Predictions[tag]
		if len(gp) != wp.Len() {
			t.Fatalf("tag %q: %d scores, want %d", tag, len(gp), wp.Len())
		}
		for label, wv := range wp.Map() {
			if gv, ok := gp[label]; !ok || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Errorf("tag %q label %q: served %v, want %v", tag, label, gp[label], wv)
			}
		}
	}
}

// TestMatchWorkerBudgets proves the response is identical at every
// per-request worker budget, including budgets above the server cap.
func TestMatchWorkerBudgets(t *testing.T) {
	_, _, ts := newTestServer(t)
	var first []byte
	for _, workers := range []int{0, 1, 2, 3, 64} {
		resp, raw := postJSON(t, ts.URL+"/v1/match", MatchRequest{
			Model:   "houses",
			DTD:     modeltest.SourceDTD,
			XML:     modeltest.SourceXML,
			Workers: workers,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, resp.StatusCode, raw)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			t.Errorf("workers=%d: response differs from workers=0", workers)
		}
	}
}

func TestMatchErrors(t *testing.T) {
	_, _, ts := newTestServer(t)
	cases := []struct {
		name   string
		body   any
		status int
		want   string
	}{
		{"unknown model", MatchRequest{Model: "ghost", DTD: modeltest.SourceDTD}, http.StatusNotFound, "not loaded"},
		{"no model", MatchRequest{DTD: modeltest.SourceDTD}, http.StatusBadRequest, "names no model"},
		{"no dtd", MatchRequest{Model: "houses"}, http.StatusBadRequest, "no source DTD"},
		{"bad dtd", MatchRequest{Model: "houses", DTD: "<!ELEMENT"}, http.StatusBadRequest, "source DTD"},
		{"bad xml", MatchRequest{Model: "houses", DTD: modeltest.SourceDTD, XML: "<unclosed"}, http.StatusBadRequest, "source XML"},
		{"version skew", MatchRequest{Model: "houses", DTD: modeltest.SourceDTD, FormatVersion: 99}, http.StatusConflict, "format version"},
		{"unknown field", map[string]any{"model": "houses", "dtd": modeltest.SourceDTD, "surprise": 1}, http.StatusBadRequest, "bad request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+"/v1/match", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var e errorResponse
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", raw)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}

	t.Run("malformed body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		// A stray closing delimiter is trailing data too, though
		// json.Decoder.More reports none before it. The bodies name an
		// unknown model, so only the body check can answer 400.
		for _, tc := range []struct{ path, body string }{
			{"/v1/match", `{"model":"ghost","dtd":"x"} extra`},
			{"/v1/match", `{"model":"ghost","dtd":"x"}}`},
			{"/v1/match", `{"model":"ghost","dtd":"x"}]`},
			{"/v1/match", `{"model":"ghost","dtd":"x"}]garbage`},
			{"/v1/batch", `{"requests":[{"model":"ghost","dtd":"x"}]}]`},
		} {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "bad request body") {
				t.Errorf("%s %s: status %d, body %s; want 400, bad request body", tc.path, tc.body, resp.StatusCode, raw)
			}
		}
	})
	t.Run("trailing white space", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/match", "application/json",
			strings.NewReader("{\"model\":\"ghost\",\"dtd\":\"x\"} \n\t"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404 (the body decodes; the model is unknown)", resp.StatusCode)
		}
	})
	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/match")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})
}

func TestBatchHandler(t *testing.T) {
	_, _, ts := newTestServer(t)
	batch := BatchRequest{
		Requests: []MatchRequest{
			{Model: "houses", DTD: modeltest.SourceDTD, XML: modeltest.SourceXML, SourceName: "a"},
			{Model: "ghost", DTD: modeltest.SourceDTD, SourceName: "b"},
			{Model: "houses", DTD: modeltest.SourceDTD, XML: modeltest.SourceXML, SourceName: "c"},
		},
		Workers: 3,
	}
	resp, raw := postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got BatchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != 3 {
		t.Fatalf("%d responses, want 3", len(got.Responses))
	}
	if got.Responses[0].SourceName != "a" || got.Responses[2].SourceName != "c" {
		t.Errorf("responses out of order: %v, %v", got.Responses[0].SourceName, got.Responses[2].SourceName)
	}
	if got.Responses[0].Status != http.StatusOK || got.Responses[2].Status != http.StatusOK {
		t.Errorf("good requests got statuses %d, %d", got.Responses[0].Status, got.Responses[2].Status)
	}
	if got.Responses[1].Status != http.StatusNotFound {
		t.Errorf("bad request got status %d, want 404", got.Responses[1].Status)
	}
	if len(got.Responses[0].Mapping) == 0 {
		t.Error("first response has empty mapping")
	}

	t.Run("empty batch", func(t *testing.T) {
		resp, _ := postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestBatchCancellation models a client that disconnects while its
// batch is in flight: the request context is already canceled when the
// fan-out starts, so the handler must abort promptly with nginx's 499
// instead of matching every element for a reader that is gone.
func TestBatchCancellation(t *testing.T) {
	_, srv, _ := newTestServer(t)
	batch := BatchRequest{Requests: make([]MatchRequest, 8), Workers: 1}
	for i := range batch.Requests {
		batch.Requests[i] = MatchRequest{Model: "houses", DTD: modeltest.SourceDTD, XML: modeltest.SourceXML}
	}
	raw, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the first element dispatches
	req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled batch took %v; cancellation must abort the fan-out promptly", elapsed)
	}
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, statusClientClosedRequest, rec.Body)
	}
	var full BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err == nil && len(full.Responses) == len(batch.Requests) {
		t.Errorf("canceled batch still completed all %d requests", len(full.Responses))
	}
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "cancel") {
		t.Errorf("error %q does not mention cancellation", body.Error)
	}
}

func TestAdminLoad(t *testing.T) {
	reg, srv, ts := newTestServer(t)
	dir := srv.opts.AdminDir
	path := modeltest.WriteArtifact(t, dir, "condos")

	resp, raw := postJSON(t, ts.URL+"/admin/load", LoadRequest{Path: path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if _, ok := reg.Snapshot()["condos"]; !ok {
		t.Fatal("loaded model not in registry")
	}

	t.Run("outside admin dir", func(t *testing.T) {
		other := modeltest.WriteArtifact(t, t.TempDir(), "evil")
		resp, _ := postJSON(t, ts.URL+"/admin/load", LoadRequest{Path: other})
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("status %d, want 403", resp.StatusCode)
		}
	})
	t.Run("corrupt artifact", func(t *testing.T) {
		bad := filepath.Join(dir, "bad"+ArtifactExt)
		if err := os.WriteFile(bad, []byte("LSDMgarbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		resp, _ := postJSON(t, ts.URL+"/admin/load", LoadRequest{Path: bad})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", resp.StatusCode)
		}
	})
	t.Run("no path", func(t *testing.T) {
		resp, _ := postJSON(t, ts.URL+"/admin/load", LoadRequest{})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if reg.Len() != 0 {
		t.Fatalf("new registry has %d models", reg.Len())
	}
	a := &Model{Name: "a"}
	b := &Model{Name: "b"}
	reg.Set(b)
	reg.Set(a)
	if got := reg.List(); len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("List = %v", got)
	}
	a2 := &Model{Name: "a", Checksum: "new"}
	reg.Set(a2)
	if m := reg.Snapshot()["a"]; m != a2 {
		t.Fatal("Set did not replace model")
	}
	if !reg.Drop("a") || reg.Drop("a") {
		t.Fatal("Drop semantics broken")
	}
	if reg.Len() != 1 {
		t.Fatalf("registry has %d models after drop, want 1", reg.Len())
	}
}

// TestRegistryHotSwapConcurrent hammers the match endpoint while a
// writer continuously swaps and drops the model. Run under -race (the
// CI build job does): every request must either match against a
// consistent snapshot (200) or miss cleanly (404).
func TestRegistryHotSwapConcurrent(t *testing.T) {
	reg, _, ts := newTestServer(t)
	fresh, err := ModelFromDecoded(mustDecode(t), 1)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const iters = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Set(fresh)
			reg.Drop("houses")
			reg.Set(fresh)
		}
	}()

	errs := make(chan error, readers*iters)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				raw, _ := json.Marshal(MatchRequest{
					Model: "houses", DTD: modeltest.SourceDTD, XML: modeltest.SourceXML, OmitPredictions: true,
				})
				resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Stop the writer after the readers are done so they observe both
	// present and absent states.
	close(stop)
	<-writerDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func mustDecode(t testing.TB) *artifact.Decoded {
	t.Helper()
	data, err := artifact.Encode("houses", modeltest.State(t))
	if err != nil {
		t.Fatal(err)
	}
	d, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	modeltest.WriteArtifact(t, dir, "one")
	modeltest.WriteArtifact(t, dir, "two")
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignore me"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	models, err := reg.LoadDir(dir, 1)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(models) != 2 || reg.Len() != 2 {
		t.Fatalf("loaded %d models, registry has %d; want 2/2", len(models), reg.Len())
	}
	if _, err := reg.LoadDir(filepath.Join(dir, "missing"), 1); err == nil {
		t.Error("LoadDir(missing) succeeded, want error")
	}
}

// TestHotReloadServesConsistentSnapshots hammers /v1/match and
// /v1/batch while a writer hot-reloads the "houses" model from disk in
// a loop, alternating two artifacts of that name whose checksums
// differ. Every reply must carry the complete, correct mapping, never
// a snapshot a reload mutated mid-flight, and every element of one
// batch reply must come from the same artifact. Together with the
// -race run in CI this is the end-to-end witness for the cowstore and
// snapshotonce contracts on the registry: Set/LoadFile build a fresh
// model table and publish it with one atomic Store, and a request
// resolves its models in one loaded generation.
func TestHotReloadServesConsistentSnapshots(t *testing.T) {
	reg, srv, ts := newTestServer(t)
	want := matchDirect(t, 1)
	wantMapping := fmt.Sprint(map[string]string(want.Mapping))
	pathA := filepath.Join(srv.opts.AdminDir, "houses"+ArtifactExt)
	checksumA := reg.Snapshot()["houses"].Checksum

	// The second artifact differs only in its training seed, which
	// matching never reads: same name and mappings, another checksum.
	st := modeltest.State(t)
	st.Config.Seed++
	data, err := artifact.Encode("houses", st)
	if err != nil {
		t.Fatal(err)
	}
	pathB := filepath.Join(t.TempDir(), "houses-reseeded"+ArtifactExt)
	if err := os.WriteFile(pathB, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mB, err := reg.LoadFile(pathB, 0)
	if err != nil {
		t.Fatal(err)
	}
	checksumB := mB.Checksum
	if checksumA == checksumB {
		t.Fatal("the two artifacts share a checksum; the test cannot tell them apart")
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			// Reload from disk: each iteration decodes a fresh model and
			// publishes a fresh registry generation, as /admin/load does.
			path := pathA
			if n%2 == 1 {
				path = pathB
			}
			if _, err := reg.LoadFile(path, 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// post sends one request and decodes a 200 reply into out.
	post := func(endpoint string, body, out any) error {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		_, rerr := buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return rerr
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", endpoint, resp.StatusCode, buf.String())
		}
		return json.Unmarshal(buf.Bytes(), out)
	}
	// check verifies one reply. The mappings never change across
	// reloads, so any deviation means a request saw a half-built or
	// mutated snapshot.
	check := func(got MatchResponse) error {
		if got.Checksum != checksumA && got.Checksum != checksumB {
			return fmt.Errorf("checksum %q, want %q or %q", got.Checksum, checksumA, checksumB)
		}
		if fmt.Sprint(got.Mapping) != wantMapping {
			return fmt.Errorf("mapping %v, want %v", got.Mapping, wantMapping)
		}
		return nil
	}

	const readers = 8
	const iters = 25
	const batchLen = 6
	req := MatchRequest{Model: "houses", DTD: modeltest.SourceDTD, XML: modeltest.SourceXML, OmitPredictions: true}
	batch := BatchRequest{Workers: 4}
	for i := 0; i < batchLen; i++ {
		batch.Requests = append(batch.Requests, req)
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers*iters)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var got MatchResponse
				if err := post("/v1/match", req, &got); err != nil {
					errs <- fmt.Errorf("request %d: %v", i, err)
					return
				}
				if err := check(got); err != nil {
					errs <- fmt.Errorf("request %d: %v", i, err)
					return
				}
				var gotBatch BatchResponse
				if err := post("/v1/batch", batch, &gotBatch); err != nil {
					errs <- fmt.Errorf("batch %d: %v", i, err)
					return
				}
				if len(gotBatch.Responses) != batchLen {
					errs <- fmt.Errorf("batch %d: %d replies, want %d", i, len(gotBatch.Responses), batchLen)
					return
				}
				for k, r := range gotBatch.Responses {
					if err := check(r); err != nil {
						errs <- fmt.Errorf("batch %d element %d: %v", i, k, err)
						return
					}
					if r.Checksum != gotBatch.Responses[0].Checksum {
						errs <- fmt.Errorf("batch %d mixes two model versions: element 0 has checksum %.12s, element %d has %.12s",
							i, gotBatch.Responses[0].Checksum, k, r.Checksum)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMatchReportsDegraded: a model whose constraints no mapping of the
// source can satisfy answers with the handler's greedy fallback and
// says so, in /v1/match and in each /v1/batch element; an ordinary
// reply carries no degraded field at all.
func TestMatchReportsDegraded(t *testing.T) {
	reg, _, ts := newTestServer(t)
	st := modeltest.State(t)
	// The source has three tags; at least four must match PRICE.
	st.ConstraintSpecs = append(st.ConstraintSpecs, constraint.Describe(constraint.Frequency("PRICE", 4, -1)))
	data, err := artifact.Encode("strict", st)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "strict.lsdm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadFile(path, 1); err != nil {
		t.Fatal(err)
	}
	req := func(model string) MatchRequest {
		return MatchRequest{Model: model, DTD: modeltest.SourceDTD, XML: modeltest.SourceXML, OmitPredictions: true}
	}

	resp, body := postJSON(t, ts.URL+"/v1/match", req("strict"))
	var got MatchResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil {
		t.Fatalf("strict match: status %d, body %s", resp.StatusCode, body)
	}
	if !got.Degraded || len(got.Mapping) != 3 {
		t.Errorf("strict match = %s, want a degraded three-tag mapping", body)
	}
	_, body = postJSON(t, ts.URL+"/v1/match", req("houses"))
	if bytes.Contains(body, []byte("degraded")) {
		t.Errorf("ordinary reply mentions degraded: %s", body)
	}

	_, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Requests: []MatchRequest{req("houses"), req("strict")}})
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil || len(batch.Responses) != 2 {
		t.Fatalf("batch reply %s: %v", body, err)
	}
	if batch.Responses[0].Degraded || !batch.Responses[1].Degraded {
		t.Errorf("batch degraded flags = %v, %v; want false, true",
			batch.Responses[0].Degraded, batch.Responses[1].Degraded)
	}
}
