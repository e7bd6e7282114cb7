package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// now reads the wall clock. The benchmark is the measurement boundary of
// the repository — every duration it reports is real elapsed time — so this
// is the one place it reads the clock.
func now() time.Time {
	//nvolint:ignore noclock the benchmark measures real elapsed time at its own boundary; nothing it times is replayed
	return time.Now()
}

// since is the wall time elapsed from t.
func since(t time.Time) time.Duration { return now().Sub(t) }

// span is one call across a layer boundary, timed from the benchmark's side
// of the call. Spans of one portal request share Req; Parent is the ID of
// the span that caused this one (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
	Failed bool          `json:"failed,omitempty"`
	// Done marks the status poll that reported the request completed.
	Done bool `json:"done,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder holds the spans of a traced run in memory; they are written out
// once, when the run ends. Create with newRecorder.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	req   int // request the next spans belong to
	root  int // span ID of that request's Analyze call
}

func newRecorder() *recorder { return &recorder{epoch: now()} }

// at is the recorder's clock: time since its epoch.
func (r *recorder) at() time.Duration { return since(r.epoch) }

// add records s as a child of the current request's Analyze call.
func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID, s.Req, s.Parent = len(r.spans)+1, r.req, r.root
	r.spans = append(r.spans, s)
}

// begin opens request req: the Analyze span is recorded when the call
// returns (finish), but its ID is reserved now so children can name it.
func (r *recorder) begin(req int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Req: req, Name: "portal.analyze"})
	r.req, r.root = req, len(r.spans)
}

// finish closes the current request's Analyze span.
func (r *recorder) finish(start, end time.Duration, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[r.root-1]
	s.Start, s.End, s.Failed = start, end, failed
	r.req, r.root = 0, 0
}

// mark returns a cursor into the span list; from(mark) returns the spans
// recorded after it.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) from(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// write saves every span, with the host record, as JSON.
func (r *recorder) write(path string, h host) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// interval is a half-open [lo, hi) stretch of recorder time.
type interval struct{ lo, hi time.Duration }

// selfTime is the part of [lo, hi) that none of the intervals covers: a
// span's duration minus the union of its children, so overlapping fan-out
// children are subtracted once, not once each.
func selfTime(lo, hi time.Duration, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.lo, c.hi = max(c.lo, lo), min(c.hi, hi)
		if c.lo < c.hi {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	covered := time.Duration(0)
	cur := interval{lo: lo, hi: lo}
	for _, c := range cs {
		if c.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = c
			continue
		}
		cur.hi = max(cur.hi, c.hi)
	}
	covered += cur.hi - cur.lo
	return hi - lo - covered
}

// percentile is the q-quantile of xs by linear interpolation between the
// closest ranks (rank q·(n−1)), with the sample count it rests on.
func percentile(xs []float64, q float64) (value float64, n int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := q * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo]), len(s)
}

// median is the 0.5-quantile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}
