package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/curvestore"
)

// span is one timed call across a layer boundary. Spans of one operation
// share Op; Parent is the span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// log records nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// spanRef identifies an open span and its operation.
type spanRef struct{ op, id uint64 }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	log *spanLog
	s   span
}

// begin opens a span under parent; a zero parent starts a new operation.
func (l *spanLog) begin(name string, parent spanRef) openSpan {
	if l == nil {
		return openSpan{}
	}
	id := l.ids.Add(1)
	op := parent.op
	if op == 0 {
		op = id
	}
	return openSpan{log: l, s: span{ID: id, Parent: parent.id, Op: op, Name: name, Start: time.Since(l.t0).Nanoseconds()}}
}

func (o openSpan) ref() spanRef { return spanRef{op: o.s.Op, id: o.s.ID} }

func (o openSpan) end() {
	if o.log == nil {
		return
	}
	o.s.End = time.Since(o.log.t0).Nanoseconds()
	o.log.mu.Lock()
	o.log.spans = append(o.log.spans, o.s)
	o.log.mu.Unlock()
}

// durationsMs returns the durations of the named spans in milliseconds.
func (l *spanLog) durationsMs(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize totals each span name's duration and self time: the duration
// minus the part of the span's interval its child spans cover.
func summarize(spans []span) map[string]*spanSummary {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanSummary{}
	for _, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		sum.Count++
		dur := s.End - s.Start
		sum.TotalMs += float64(dur) / 1e6
		sum.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, cur), min(k.End, parent.End)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// write saves the spans with their per-name summary, and the CPU profile.
func (l *spanLog) write(path string, profile []byte, profilePath string) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := struct {
		Summary map[string]*spanSummary `json:"summary"`
		Spans   []span                  `json:"spans"`
	}{summarize(spans), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(profilePath, profile, 0o644); err != nil {
		return fmt.Errorf("writing the CPU profile: %w", err)
	}
	return nil
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	if ref.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// spanHeader carries "<op>/<span>" from the client transport to the
// server handler, so server-side spans join the client's operation.
const spanHeader = "Perfbench-Span"

// spanTransport stamps the calling span onto outgoing requests.
type spanTransport struct{ inner http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref := spanFrom(req.Context()); ref.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.op, ref.id))
	}
	return t.inner.RoundTrip(req)
}

func spanFromHeader(h http.Header) spanRef {
	op, id, ok := strings.Cut(h.Get(spanHeader), "/")
	if !ok {
		return spanRef{}
	}
	o, err1 := strconv.ParseUint(op, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{op: o, id: i}
}

// timedHandler records a span around each request the server handles,
// into the log of the current phase (nil: no spans).
type timedHandler struct {
	inner http.Handler
	log   atomic.Pointer[spanLog]
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "curvestore.server.get"
	if r.Method == http.MethodPut {
		name = "curvestore.server.put"
	}
	sp := h.log.Load().begin(name, spanFromHeader(r.Header))
	h.inner.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp.ref())))
	sp.end()
}

// timedStore wraps a curve-store tier: a span per call into the log of
// the current phase (nil: no spans), and load and hit counts.
type timedStore struct {
	name        string // span name prefix, e.g. "curvestore.disk"
	inner       curvestore.Store
	log         atomic.Pointer[spanLog]
	loads, hits atomic.Int64
}

func (t *timedStore) Load(ctx context.Context, key curvestore.Key) (*core.Family, bool, error) {
	sp := t.log.Load().begin(t.name+".load", spanFrom(ctx))
	fam, ok, err := t.inner.Load(withSpan(ctx, sp.ref()), key)
	sp.end()
	t.loads.Add(1)
	if ok {
		t.hits.Add(1)
	}
	return fam, ok, err
}

func (t *timedStore) Save(ctx context.Context, key curvestore.Key, fam *core.Family) error {
	sp := t.log.Load().begin(t.name+".save", spanFrom(ctx))
	err := t.inner.Save(withSpan(ctx, sp.ref()), key, fam)
	sp.end()
	return err
}
