package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code.  Spans of one HTTP request share Req; a pack pass is one
// request.  Track tells the clients of serve-churn apart.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Track  int    `json:"track"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.  A nil recorder
// records nothing, so untraced code paths carry only a nil check.  One
// recorder belongs to one goroutine.
type recorder struct {
	origin time.Time
	track  int
	spans  []span
}

func newRecorder(origin time.Time, track int) *recorder {
	return &recorder{origin: origin, track: track}
}

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent int32, req int64) int32 {
	if r == nil {
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Track: r.track, Req: req, Name: name,
		Start: int64(time.Since(r.origin)),
	})
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.origin))
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.  Children of
// one span never overlap here, because every span is opened and closed
// by one goroutine around a synchronous call.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		track int
		id    int32
	}
	child := make(map[key]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[key{s.Track, s.Parent}] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - child[key{s.Track, s.ID}]
	}
	return out
}

// subtree returns the spans under root (inclusive) on one track.
func subtree(spans []span, track int, root int32) []span {
	in := map[int32]bool{root: true}
	var out []span
	for _, s := range spans {
		if s.Track != track {
			continue
		}
		if in[s.ID] || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockScale is how much faster than wall time fineClock runs.
const clockScale = 1000

// fineClock is a core.Options.Clock for traced runs.  The core records
// its phase latencies in microsecond histograms, and one search takes
// about a microsecond, so at wall-clock speed most observations would
// truncate to 0.  This clock runs clockScale times faster, so the
// histograms' sums count nanoseconds; the benchmark reads only those
// sums and divides durations the core reports by clockScale.
func fineClock() func() time.Time {
	origin := time.Now()
	return func() time.Time {
		return origin.Add(time.Since(origin) * clockScale)
	}
}
