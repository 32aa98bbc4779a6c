// Package sharedread exercises the sharedread analyzer: values
// returned by `// lint:shared` functions (and interface methods) are
// read-only; callers must Clone before modifying.
package sharedread

type pred map[string]float64

var canonical = pred{"a": 1}

// cache returns the shared canonical prediction for key; callers must
// not mutate it.
//
// lint:shared
func cache(key string) pred {
	return canonical
}

// scale mutates its argument in place — the callee the interprocedural
// case launders a write through.
func scale(p pred, by float64) {
	p["a"] *= by
}

// reset mutates its receiver.
func (p pred) reset() {
	p["a"] = 0
}

// bad mutates the shared value directly.
func bad() {
	p := cache("x")
	p["a"] = 2 // want: direct write
}

// badDelete shrinks the shared map.
func badDelete() {
	p := cache("x")
	delete(p, "a") // want: delete
}

// badAlias mutates through a second name for the same storage.
func badAlias() {
	p := cache("x")
	q := p
	q["a"] = 2 // want: write through alias
}

// badCallee passes the shared value to a helper whose summary mutates
// its parameter — the interprocedural true positive.
func badCallee() {
	p := cache("x")
	scale(p, 2) // want: callee mutates
}

// badMethod mutates through a method on the shared value.
func badMethod() {
	p := cache("x")
	p.reset() // want: receiver mutated
}

// badStored keeps shared values in a slice and mutates one through the
// container — the preds[i] = l.Predict(in) pattern from the stacker.
func badStored() {
	preds := make([]pred, 2)
	preds[0] = cache("x")
	preds[0]["a"] = 2 // want: write through the container
	p := preds[1]
	p["b"] = 3 // want: element read keeps tracking
}

// badStoredCallee hands a container element to a mutating helper.
func badStoredCallee() {
	preds := make([]pred, 1)
	preds[0] = cache("x")
	scale(preds[0], 2) // want: callee mutates the stored shared value
}

// goodReplace overwrites container slots that held shared values (true
// negative: replacing the reference is not mutating the value).
func goodReplace() {
	preds := make([]pred, 2)
	preds[0] = cache("x")
	preds[0] = pred{"a": 1}
	preds[1] = nil
	_ = preds
}

// goodClone copies before mutating (true negative).
func goodClone() pred {
	p := cache("x")
	q := make(pred, len(p))
	for k, v := range p {
		q[k] = v
	}
	q["a"] = 2
	return q
}

// goodRead only reads (true negative).
func goodRead() float64 {
	return cache("x")["a"]
}

// tolerated carries a justified suppression.
func tolerated() {
	p := cache("x")
	//lint:ignore sharedread fixture exercises suppression
	p["a"] = 3
}

// predictor's Predict hands out shared cached predictions: the
// annotation sits on the interface method, and binds every
// implementation.
type predictor interface {
	// Predict returns the shared cached prediction for key.
	//
	// lint:shared
	Predict(key string) pred
}

// badIface mutates a prediction obtained through the interface
// (dynamic dispatch resolves to the annotated interface method).
func badIface(pr predictor) {
	p := pr.Predict("x")
	p["a"] = 1 // want: interface contract
}

type impl struct{}

func (impl) Predict(key string) pred { return canonical }

// badImpl mutates a prediction obtained from a concrete implementation
// of the shared interface method: the contract propagates to
// implementations.
func badImpl(m impl) {
	p := m.Predict("x")
	p["a"] = 1 // want: implementation inherits the contract
}

// viaHelper forwards a shared call's result, so it is itself shared.
func viaHelper(key string) pred {
	return cache(key)
}

// badDerived mutates a value from the derived helper.
func badDerived() {
	p := viaHelper("x")
	p["a"] = 1 // want: derived producer
}

// vec is a dense prediction: a struct holding a score slice. Copies of
// a vec share the slice, so a copy of a shared vec is the shared value.
type vec struct {
	labels []string
	scores []float64
}

var canonicalVec = vec{labels: []string{"a", "b"}, scores: []float64{0.5, 0.5}}

// cachedVec returns the shared canonical vector.
//
// lint:shared
func cachedVec(key string) vec {
	return canonicalVec
}

// Scores hands out the vector's own slice.
func (v vec) Scores() []float64 { return v.scores }

// Normalize rescales the scores in place through its value receiver.
func (v vec) Normalize() vec {
	s := v.scores
	for i := range s {
		s[i] /= 2
	}
	return v
}

// Set writes one score through its value receiver.
func (v vec) Set(i int, x float64) { v.scores[i] = x }

// Clone copies the scores: its result is a fresh vector.
func (v vec) Clone() vec {
	return vec{labels: v.labels, scores: append([]float64(nil), v.scores...)}
}

// Best only reads.
func (v vec) Best() float64 {
	best := 0.0
	for _, s := range v.scores {
		if s > best {
			best = s
		}
	}
	return best
}

// badVecMethod mutates the shared vector through a value-receiver
// method that writes through the slice.
func badVecMethod() {
	v := cachedVec("x")
	v.Normalize() // want: value receiver writes the shared scores
	v.Set(0, 1)   // want: likewise
}

// badVecAccessor writes through the slice an accessor hands out.
func badVecAccessor() {
	v := cachedVec("x")
	s := v.Scores()
	s[0] = 1 // want: accessor result is the shared slice
}

// badVecChain writes through a call chain with no local at all.
func badVecChain() {
	cachedVec("x").Scores()[0] = 1              // want: call-rooted write
	copy(cachedVec("x").Scores(), []float64{1}) // want: copy into the shared slice
	cachedVec("x").Normalize().Set(1, 0)        // want: Normalize, then Set on its result
}

// badVecStored keeps shared vectors in a slice, as the stacker does.
func badVecStored() {
	preds := make([]vec, 1)
	preds[0] = cachedVec("x")
	preds[0].Scores()[1] = 0 // want: element's accessor
}

// vecHelper forwards an accessor over a shared vector, so it is shared.
func vecHelper() []float64 {
	return cachedVec("x").Scores()
}

// badVecDerived writes through the derived helper's result.
func badVecDerived() {
	vecHelper()[0] = 1 // want: derived producer through an accessor
}

// goodVecClone mutates a clone (true negative).
func goodVecClone() vec {
	v := cachedVec("x").Clone()
	v.Normalize()
	v.Scores()[0] = 1
	return v
}

// goodVecRead only reads (true negative).
func goodVecRead() float64 {
	v := cachedVec("x")
	return v.Best() + v.Scores()[0]
}

// vecPredictor hands out shared vectors through an interface method,
// as learn.Learner.Predict does.
type vecPredictor interface {
	// Predict returns the shared cached vector for key.
	//
	// lint:shared
	Predict(key string) vec
}

// badVecIface normalizes a vector obtained through the interface.
func badVecIface(pr vecPredictor) {
	p := pr.Predict("x")
	p.Normalize() // want: interface contract on a struct value
}

// normalizedHelper forwards a shared vector after normalizing it in
// place. It is shared by derivation but does not own the storage, so
// its own body is checked like any caller's.
func normalizedHelper() vec {
	v := cachedVec("x")
	v.Normalize() // want: a forwarding helper's write
	return v
}

// normalizeCopy normalizes a copy of its argument: the copy shares the
// argument's scores, so the summary records a write through v.
func normalizeCopy(v vec) {
	w := v
	w.Normalize()
}

// badVecViaCopy hands a shared vector to normalizeCopy.
func badVecViaCopy() {
	normalizeCopy(cachedVec("x")) // want: callee mutates through a struct copy
}
