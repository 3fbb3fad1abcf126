package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req: the run-wide index of the request in its run log (warm set, lead-in,
// then window), or a negative id for a replay probe.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Req    int              `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Allocs int64            `json:"allocs,omitempty"`
	Bytes  int64            `json:"alloc_bytes,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// from the run's epoch.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ms    runtime.MemStats
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span that also counts the heap allocations made until end.
// The allocation counters are read outside the timed interval; reading them
// stops the world, so begin and end are for the replay only, never for the
// load phase. Spans are opened and closed on one goroutine.
func (t *tracer) begin(name string, parent, req int) int {
	id := t.add(span{Name: name, Parent: parent, Req: req})
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id-1]
	s.Allocs, s.Bytes = -int64(t.ms.Mallocs), -int64(t.ms.TotalAlloc)
	s.Start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int) {
	end := int64(time.Since(t.epoch))
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id-1]
	s.End = end
	s.Allocs += int64(t.ms.Mallocs)
	s.Bytes += int64(t.ms.TotalAlloc)
}

func (t *tracer) attr(id int, key string, v int64) {
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = v
}

// layerStat is one span name's totals over the run: self time is a span's
// duration minus the part its child spans cover, likewise for allocations.
type layerStat struct {
	calls      int
	selfNs     int64
	selfAllocs int64
	attrs      map[string]int64
}

func (s layerStat) meanNs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.calls)
}

func (s layerStat) mean(v int64) float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(v) / float64(s.calls)
}

func (t *tracer) layers() map[string]*layerStat {
	childNs := make([]int64, len(t.spans)+1)
	childAllocs := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		childNs[s.Parent] += s.dur()
		childAllocs[s.Parent] += s.Allocs
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{attrs: map[string]int64{}}
			out[s.Name] = st
		}
		st.calls++
		st.selfNs += s.dur() - childNs[s.ID]
		st.selfAllocs += s.Allocs - childAllocs[s.ID]
		for k, v := range s.Attrs {
			st.attrs[k] += v
		}
	}
	return out
}

// write stores the spans and each layer's totals as JSON.
func (t *tracer) write(path string) error {
	type layerJSON struct {
		Calls      int     `json:"calls"`
		SelfMsMean float64 `json:"self_ms_mean"`
		AllocsMean float64 `json:"allocs_mean"`
	}
	layers := map[string]layerJSON{}
	for name, st := range t.layers() {
		layers[name] = layerJSON{st.calls, st.meanNs() / 1e6, st.mean(st.selfAllocs)}
	}
	b, err := json.Marshal(struct {
		Layers map[string]layerJSON `json:"layers"`
		Spans  []span               `json:"spans"`
	}{layers, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
