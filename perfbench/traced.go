package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer. Parent is -1 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps the traced pass's spans in memory and accumulates the
// per-layer metrics. Traced passes are serial, so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
	vals  map[string]float64
	notes []string
	g     *gate
}

func newRecorder(g *gate) *recorder {
	return &recorder{t0: time.Now(), vals: map[string]float64{}, g: g}
}

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, StartNS: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.EndNS = time.Since(r.t0).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

func (r *recorder) set(name string, v float64) { r.vals[name] = v }
func (r *recorder) add(name string, v float64) { r.vals[name] += v }

// verify counts one traced re-check as an operation; a non-empty
// problem fails it.
func (r *recorder) verify(what, problem string) {
	r.g.attempted++
	if problem != "" {
		r.g.fail("traced pass: " + what + ": " + problem)
	}
}

// note records why a layer metric reads 0 on this workload.
func (r *recorder) note(msg string) { r.notes = append(r.notes, msg) }

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// metrics returns every per-layer metric; one the workload does not
// exercise reads 0 and carries a note.
func (r *recorder) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{r.vals[m.name], m.unit}
	}
	return out
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean divides an accumulated total by a count, 0 for no samples.
func mean(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// sameJSON reports "" when two values encode identically.
func sameJSON(a, b any) string {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("encoding: %v %v", err1, err2)
	}
	return diffBytes(ja, jb)
}

// diffBytes reports "" when got equals want, else both digests.
func diffBytes(got, want []byte) string {
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("digest %s, untraced %s", digest(got), digest(want))
	}
	return ""
}
