package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark: around a client
// call, an in-process probe, or a server stage parsed from the access
// log. Parent is the ID of the span that caused it, -1 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory for the whole run; they are written
// out once, when the benchmark ends, so recording costs one append.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// time runs f inside a root span named name.
func (r *recorder) time(name string, f func() error) error {
	start := time.Now()
	err := f()
	r.add(name, -1, start, time.Now())
	return err
}

func (r *recorder) writeJSON(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes reduces spans to self time per span name: each span's
// duration minus the part of its interval covered by its children.
// Children may overlap each other (parallel work) or stick out of the
// parent (a retroactive mark); covered time is the union of the child
// intervals clipped to the parent, so nothing is subtracted twice.
func selfTimes(spans []span) map[string][]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		var iv [][2]time.Duration
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi time.Duration
		for i, v := range iv {
			switch {
			case i == 0:
				curLo, curHi = v[0], v[1]
			case v[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			case v[1] > curHi:
				curHi = v[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered)
	}
	return out
}
