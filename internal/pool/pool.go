// Package pool provides typed, request-scoped scratch arenas: small
// wrappers over sync.Pool that hand out dense buffers for the predict
// hot paths (WHIRL's similarity matrices, Naive Bayes' log-score
// tables, the stacker's per-instance prediction rows) and the serve
// layer's response encoding. The generalization of the PR 5
// dense-scratch pattern: a batch request acquires O(1) pooled buffers
// instead of allocating per instance.
//
// Contract (enforced by the poolescape analyzer): every Get has a
// matching Put on every path of the acquiring function, and pooled
// memory never escapes the request that acquired it — not into a
// cache, a struct field, a goroutine, or a returned value. The Get
// accessors carry the `lint:scratch` annotation that roots the
// analyzer's tracking.
package pool

import (
	"bytes"
	"sync"

	"repro/internal/learn"
)

// Floats pools dense []float64 scratch buffers. Buffers are zeroed on
// Put, so Get always returns an all-zero buffer and the accumulate
// paths need no per-call clearing.
type Floats struct {
	p sync.Pool
}

// Get returns a zeroed buffer of length n. The caller must hand it
// back via Put before returning and must not let it escape.
//
// lint:scratch
func (f *Floats) Get(n int) []float64 {
	if v := f.p.Get(); v != nil {
		if buf := v.(*[]float64); cap(*buf) >= n {
			return (*buf)[:n]
		}
	}
	return make([]float64, n)
}

// Put zeroes buf and recycles it.
func (f *Floats) Put(buf []float64) {
	for i := range buf {
		buf[i] = 0
	}
	f.p.Put(&buf)
}

// Preds pools []learn.Prediction scratch rows — the per-instance
// base-learner prediction vectors the stacker combines. Entries are
// emptied on Put so the pool never retains predictions (which may be
// shared with learner caches) beyond the request that used them.
type Preds struct {
	p sync.Pool
}

// Get returns an all-empty prediction slice of length n. The caller
// must hand it back via Put before returning and must not let it
// escape.
//
// lint:scratch
func (s *Preds) Get(n int) []learn.Prediction {
	if v := s.p.Get(); v != nil {
		if buf := v.(*[]learn.Prediction); cap(*buf) >= n {
			return (*buf)[:n]
		}
	}
	return make([]learn.Prediction, n)
}

// Put empties buf and recycles it.
func (s *Preds) Put(buf []learn.Prediction) {
	for i := range buf {
		buf[i] = learn.Prediction{}
	}
	s.p.Put(&buf)
}

// Buffers pools bytes.Buffer values for response encoding: the serve
// handlers marshal each JSON reply into a pooled buffer (one
// amortized allocation per request) instead of streaming through a
// fresh encoder allocation chain.
type Buffers struct {
	p sync.Pool
}

// Get returns an empty buffer. The caller must hand it back via Put
// before returning and must not let it escape.
//
// lint:scratch
func (b *Buffers) Get() *bytes.Buffer {
	if v := b.p.Get(); v != nil {
		buf := v.(*bytes.Buffer)
		buf.Reset()
		return buf
	}
	return &bytes.Buffer{}
}

// Put recycles the buffer.
func (b *Buffers) Put(buf *bytes.Buffer) {
	b.p.Put(buf)
}
