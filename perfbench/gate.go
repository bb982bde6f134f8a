package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// output is one checked result of a round: a name and its exact bytes.
type output struct {
	name string
	data []byte
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// reference pins, for the default seed, the digest of every output of
// every workload: workload -> output name -> digest.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// gate checks a workload's outputs round by round. Every round must
// reproduce the first round's digests exactly; when pinned digests
// exist for the seed, the first round must match them too. Each output
// is one attempted operation; a mismatch, a missing output or a failed
// cross-check is one failed operation.
type gate struct {
	pinned    map[string]string // nil when the seed has no pinned digests
	first     map[string]string
	attempted int
	failed    int
	problems  []string
}

func newGate(pinned map[string]string) *gate { return &gate{pinned: pinned} }

// check records one round's outputs and cross-check problems.
func (g *gate) check(outs []output, problems []string) {
	got := make(map[string]string, len(outs))
	for _, o := range outs {
		got[o.name] = digest(o.data)
	}
	want := g.first
	source := "the first round"
	if want == nil {
		g.first = got
		want, source = g.pinned, "the pinned reference"
	}
	g.attempted += len(got) + len(problems)
	for _, p := range problems {
		g.fail("cross-check: " + p)
	}
	if want == nil {
		return
	}
	for _, name := range sortedKeys(got) {
		if w, ok := want[name]; !ok {
			g.fail(fmt.Sprintf("%s: digest %s, not in %s", name, got[name], source))
		} else if w != got[name] {
			g.fail(fmt.Sprintf("%s: digest %s, %s has %s", name, got[name], source, w))
		}
	}
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			g.attempted++
			g.fail(fmt.Sprintf("%s: missing, %s has %s", name, source, want[name]))
		}
	}
}

// failOp counts an operation that failed outright.
func (g *gate) failOp(err error) {
	g.attempted++
	g.fail("error: " + err.Error())
}

func (g *gate) fail(msg string) {
	g.failed++
	g.problems = append(g.problems, msg)
}

// digests lists the first round's digests in name order.
func (g *gate) digests() []string {
	var lines []string
	for _, name := range sortedKeys(g.first) {
		lines = append(lines, name+" "+g.first[name])
	}
	return lines
}
