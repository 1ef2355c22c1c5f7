package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval around a call the benchmark makes into a
// layer. Times are seconds since the tracer started; spans of one plan or
// request share Op, and a child names its parent's ID.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Op     string  `json:"op"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer records
// nothing and costs one branch per call, so timed runs carry no tracing.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	cost  time.Duration // time spent inside record, the tracer's own overhead
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// record stores one span and returns its ID (0 when tracing is off).
func (t *tracer) record(parent int64, name, op string, start, end time.Time) int64 {
	if !t.on {
		return 0
	}
	t0 := time.Now()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
	})
	t.cost += time.Since(t0)
	t.mu.Unlock()
	return id
}

// overhead returns the number of spans and the time spent recording them.
func (t *tracer) overhead() (int, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.cost
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
