// Derived views: per-stream precomputed arrays that are pure functions
// of the captured event stream plus a small configuration key — set
// indices for a TLB geometry, folded predictor signature sequences,
// prefetch fill schedules. Stream.Derive builds every view it is asked
// for that is not already there in one pass over the varint buffer:
// each view's builder is fed the same decoded blocks. The results are
// memoized on the stream (single-flight), accounted against the owning
// cache's byte budget, and — when the stream belongs to a persistent
// capture store — written as sections of the stream's own file, so
// warm sweeps across processes skip the computation entirely.
//
// The l2stream package stays agnostic about what a derived view
// contains: builders and codecs live with their consumers (internal/
// sim), which hands them in as a DerivedSpec. This package owns the
// cross-cutting mechanics only — memoization, concurrency, budget
// accounting, the fused build pass, and the store sections.
package l2stream

import "time"

// DerivedSpec describes one derived-view family to Stream.Derive: an
// invalidation key, a builder, and an optional persistence codec.
//
// Key must change whenever the view's contents would: it should embed
// the family name, a format version, and every configuration input the
// view depends on (TLB geometry, predictor history configuration,
// prefetch distance, …). Streams never compare keys semantically —
// distinct keys are distinct views.
type DerivedSpec struct {
	// Key is the full invalidation key (family + version + config).
	Key string
	// Build starts an incremental build of the view over s. It runs at
	// most once per (stream, key); the stream is immutable underneath
	// it.
	Build func(s *Stream) DerivedBuilder
	// Bytes reports the view's in-memory footprint for cache budget
	// accounting.
	Bytes func(view any) int64
	// Encode serializes the view as a store section; nil means the
	// family is never persisted.
	Encode func(view any) []byte
	// Decode deserializes and validates a section payload; it must
	// copy what it keeps. ok=false means the payload is stale, in
	// which case the view is rebuilt (and the file rewritten). nil
	// means sections are never read for the family.
	Decode func(s *Stream, data []byte) (view any, ok bool)
}

// DerivedBuilder accumulates one derived view from a stream's events.
type DerivedBuilder interface {
	// Feed consumes the next decoded block, in stream order. The block
	// is reused once Feed returns, so Feed must not retain it; as with
	// Decoder.NextBlock, only the fields meaningful for each event's
	// Kind are valid.
	Feed(evs []Event)
	// Finish returns the view once every block has been fed.
	Finish() any
}

// derivedSlot is one single-flight memo cell: the Derive call that
// claims a key fills view/err and closes done; everyone else waits on
// done and shares the result.
type derivedSlot struct {
	done chan struct{}
	view any
	err  error
}

// Derive returns the stream's views for specs, in order, materializing
// every one it does not hold yet. Views persisted in the stream's
// store file are decoded from their sections; the rest are built
// together in one decode pass over the buffer, and the stream's file
// is then written once, with the body, the sections already in it, and
// every newly built view with a codec. Concurrent calls share keys
// single-flight. It fails with the first build error among specs. The
// views are shared between every caller and MUST be treated as
// read-only.
func (s *Stream) Derive(specs ...*DerivedSpec) ([]any, error) {
	slots := s.derive(specs)
	views := make([]any, len(slots))
	for i, slot := range slots {
		if slot.err != nil {
			return nil, slot.err
		}
		views[i] = slot.view
	}
	return views, nil
}

// Derived returns the stream's view for spec: a one-spec Derive.
func (s *Stream) Derived(spec *DerivedSpec) (any, error) {
	slot := s.derive([]*DerivedSpec{spec})[0]
	return slot.view, slot.err
}

// derive claims the missing slots among specs, materializes them, and
// waits for every slot — including those other goroutines claimed.
func (s *Stream) derive(specs []*DerivedSpec) []*derivedSlot {
	slots := make([]*derivedSlot, len(specs))
	var mine []int
	s.derivedMu.Lock()
	if s.derived == nil {
		s.derived = make(map[string]*derivedSlot)
	}
	for i, spec := range specs {
		slot := s.derived[spec.Key]
		if slot == nil {
			slot = &derivedSlot{done: make(chan struct{})}
			s.derived[spec.Key] = slot
			mine = append(mine, i)
		}
		slots[i] = slot
	}
	s.derivedMu.Unlock()
	if len(mine) > 0 {
		s.materialize(specs, slots, mine)
	}
	for _, slot := range slots {
		<-slot.done
	}
	return slots
}

// materialize fills the claimed slots specs[mine]: section decodes
// first, then one fused build pass for the rest, then one write of the
// stream's file when anything new is to be persisted.
func (s *Stream) materialize(specs []*DerivedSpec, slots []*derivedSlot, mine []int) {
	defer func() {
		for _, i := range mine {
			close(slots[i].done)
		}
	}()
	f := s.file
	var secs []section
	var bp *[]byte // nil: no usable file
	if f != nil {
		f.mu.Lock()
		secs, bp = f.sections()
		f.mu.Unlock()
		defer releaseBuf(bp)
	}
	start := time.Now()
	var grow int64
	var build []int
	var builders []DerivedBuilder
	for _, i := range mine {
		spec := specs[i]
		if data, ok := findSection(secs, spec.Key); ok && spec.Decode != nil {
			if v, ok := spec.Decode(s, data); ok && data != nil {
				obsDerivedDiskHits.Inc()
				slots[i].view = v
				grow += spec.Bytes(v)
				continue
			}
			// The section failed its checksum or the spec's validation:
			// rebuild, and let the write below replace it.
			obsDerivedCorrupt.Inc()
		}
		build = append(build, i)
		builders = append(builders, spec.Build(s))
	}
	var added []section
	if len(builders) > 0 {
		err := s.EachBlock(func(evs []Event) {
			for _, b := range builders {
				b.Feed(evs)
			}
		})
		for k, i := range build {
			if slots[i].err = err; err != nil {
				continue
			}
			v := builders[k].Finish()
			slots[i].view = v
			obsDerivedBuilds.Inc()
			grow += specs[i].Bytes(v)
			if specs[i].Encode != nil {
				added = append(added, section{key: specs[i].Key, payload: specs[i].Encode(v)})
			}
		}
	}
	obsPhaseDerive.Observe(time.Since(start).Seconds())
	s.noteGrowth(grow)
	if f != nil && (len(added) > 0 || bp == nil) {
		f.write(s, added)
	}
}

// findSection returns the payload stored under key in secs.
func findSection(secs []section, key string) ([]byte, bool) {
	for _, sec := range secs {
		if sec.key == key {
			return sec.payload, true
		}
	}
	return nil, false
}

// noteGrowth adds materialized views' bytes to the stream's footprint
// and reports them to the owning cache, which adds them to the
// stream's accounted bytes and rebalances the budget.
func (s *Stream) noteGrowth(delta int64) {
	if delta <= 0 {
		return
	}
	s.derivedMu.Lock()
	s.derivedBytes += delta
	s.derivedMu.Unlock()
	if s.onGrow != nil {
		s.onGrow(delta)
	}
}
