package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"github.com/chirplab/chirp/internal/trace"
)

// span is one timed call into a layer. Spans of one engine job share
// Job; Parent is the enclosing span's ID (-1 for the job's root).
// SourceNS is the part of the span spent inside the workload generator,
// measured by a timedSource rather than by per-block child spans (a
// trace yields thousands of blocks).
type span struct {
	ID       int    `json:"id"`
	Job      int    `json:"job"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SourceNS int64  `json:"source_ns,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps every span of a traced pass in memory; write saves
// them once the pass is over, so no I/O lands inside a timed call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// jobSpans collects one job's spans without locking; the job hands
// them to the recorder when it finishes.
type jobSpans struct {
	r     *recorder
	job   int
	spans []span
}

func (r *recorder) job(id int) *jobSpans { return &jobSpans{r: r, job: id} }

// open starts a span under parent and returns its index.
func (j *jobSpans) open(name string, parent int) int {
	j.spans = append(j.spans, span{ID: len(j.spans), Job: j.job, Parent: parent, Name: name,
		StartNS: int64(time.Since(j.r.t0))})
	return len(j.spans) - 1
}

// close ends the span at index i, charging sourceNS of generator time
// to it.
func (j *jobSpans) close(i int, sourceNS int64) {
	j.spans[i].EndNS = int64(time.Since(j.r.t0))
	j.spans[i].SourceNS = sourceNS
}

// done moves the job's spans into the recorder, assigning global IDs.
func (j *jobSpans) done() {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	base := len(j.r.spans)
	for _, s := range j.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		j.r.spans = append(j.r.spans, s)
	}
}

// byName sums span durations and generator time per span name.
func (r *recorder) byName() (dur, source map[string]int64) {
	dur, source = map[string]int64{}, map[string]int64{}
	for _, s := range r.spans {
		dur[s.Name] += s.dur()
		source[s.Name] += s.SourceNS
	}
	return dur, source
}

// unattributed returns the time of the root spans named root that no
// child span covers, and their total time.
func (r *recorder) unattributed(root string) (uncovered, total int64) {
	children := map[int]int64{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	for _, s := range r.spans {
		if s.Parent < 0 && s.Name == root {
			total += s.dur()
			uncovered += s.dur() - children[s.ID]
		}
	}
	return uncovered, total
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSource wraps a workload's trace source and accumulates the time
// spent generating records. Block reads are timed per block; Next is
// served from an internal block buffer so that record-at-a-time
// consumers (the pipeline) are timed per block too, not per record.
// The record sequence is unchanged.
type timedSource struct {
	src     trace.BlockSource
	buf     []trace.Record
	pos, n  int
	ns      int64
	records uint64
}

func newTimedSource(src trace.Source) *timedSource {
	return &timedSource{src: trace.Blocks(src)}
}

// NextBlock implements trace.BlockSource.
func (t *timedSource) NextBlock(buf []trace.Record) int {
	start := time.Now()
	n := t.src.NextBlock(buf)
	t.ns += int64(time.Since(start))
	t.records += uint64(n)
	return n
}

// Next implements trace.Source.
func (t *timedSource) Next(rec *trace.Record) bool {
	if t.pos == t.n {
		if t.buf == nil {
			t.buf = make([]trace.Record, trace.DefaultBlockSize)
		}
		t.n, t.pos = t.NextBlock(t.buf), 0
		if t.n == 0 {
			return false
		}
	}
	*rec = t.buf[t.pos]
	t.pos++
	return true
}

// Reset implements trace.Source.
func (t *timedSource) Reset() {
	t.src.Reset()
	t.pos, t.n = 0, 0
}
