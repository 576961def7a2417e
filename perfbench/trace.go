package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: name, start and
// end (nanoseconds since the recorder was created), the span that caused it
// (0 at a root) and the request it served (0 when it served none).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

// spanRecorder buffers spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type spanRecorder struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its id.
func (r *spanRecorder) add(name string, parent, req int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base)),
	})
	return id
}

// open starts a span whose end is set by close; it is for the root of a
// rung, whose id its children need before it ends.
func (r *spanRecorder) open(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Now()
	return r.add(name, parent, 0, now, now)
}

// close ends a span started by open.
func (r *spanRecorder) close(id int64) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.base))
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// durations returns the durations in microseconds of every span named name.
func (r *spanRecorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeFile writes a provenance header line followed by one JSON span per
// line to path, creating its directory.
func (r *spanRecorder) writeFile(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.write(f, prov); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *spanRecorder) write(w io.Writer, prov provenance) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ladderRow is one layer of the traced ladder table.
type ladderRow struct {
	layer  string
	selfUS float64
	how    string // how the self time was derived
}

// writeLadder prints one workload's ladder: each layer's median self time
// and its share of the workload's lat_p50_ms, naming the base.
func writeLadder(w io.Writer, workload string, baseMS float64, rows []ladderRow) {
	fmt.Fprintf(w, "ladder %s: share base = lat_p50_ms %.4f ms, untraced pass of this run\n", workload, baseMS)
	fmt.Fprintf(w, "  %-14s %12s %8s  %s\n", "layer", "self_us", "share", "self time = ")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %12.3f %7.1f%%  %s\n", r.layer, r.selfUS, 100*ratio(r.selfUS/1e3, baseMS), r.how)
	}
}
