package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/minos-ddp/minos/internal/obs"
)

// benchSpan is one span the benchmark records around a call into the
// system: a client op (send to reply), its Transport.Send, a set-up
// stage, or an idle probe. Spans of one op share Op.
type benchSpan struct {
	Op    uint64 `json:"op,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps up to spanLimit benchmark spans in memory until the
// run exits.
type spanLog struct {
	mu    sync.Mutex
	spans []benchSpan
}

// Client ops are sampled one in spanSampleEvery, the node tracer's
// default rate.
const (
	spanSampleEvery = obs.DefaultSampleEvery
	spanLimit       = 1 << 16
)

func (l *spanLog) sample(seq uint64) bool { return seq%spanSampleEvery == 0 }

func (l *spanLog) add(s benchSpan) {
	l.mu.Lock()
	if len(l.spans) < spanLimit {
		l.spans = append(l.spans, s)
	}
	l.mu.Unlock()
}

// writeSpans writes the benchmark spans and the nodes' D9 spans, one
// JSON object a line, to path.
func writeSpans(path string, bench []benchSpan, node []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range bench {
		if err := enc.Encode(struct {
			Layer string `json:"layer"`
			benchSpan
		}{"bench", s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range node {
		if err := enc.Encode(struct {
			Layer string `json:"layer"`
			Phase string `json:"phase"`
			obs.Span
		}{"node", s.Phase.String(), s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
