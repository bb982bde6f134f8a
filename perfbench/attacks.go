package main

import (
	"encoding/json"
	"fmt"

	"pracsim/internal/attack"
	"pracsim/internal/exp/pool"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
)

// attackCase is one PRACLeak instance of the suite.
type attackCase struct {
	name string
	run  func() (any, error)
	// check compares the result with what the drawn inputs imply; it
	// returns "" when they agree.
	check func(any) string
}

// attackRound runs every case of the suite on benchWorkers goroutines.
type attackRound struct {
	cases   []attackCase
	results []any
}

// fixedTPRAC is Fig. 9's defense: a fixed 0.25 tREFI TB-Window, well
// below the window solved for NBO 256.
func fixedTPRAC() (mitigation.Policy, error) { return mitigation.NewTPRAC(ticks.FromNS(975), false) }

const (
	aesNBO         = 256
	aesEncryptions = 200
)

func attackCases(in Inputs) []attackCase {
	var cases []attackCase
	// The pool hands cases out in order, and a channel's cost grows
	// with its NBO, so the longest cases go first and the two
	// goroutines finish close together.
	for i := len(covertNBOs) - 1; i >= 0; i-- {
		nbo := covertNBOs[i]
		bits := in.Activity[i]
		want := make([]int, len(bits))
		for j, b := range bits {
			if b {
				want[j] = 1
			}
		}
		cases = append(cases, attackCase{
			name: fmt.Sprintf("activity-nbo%d", nbo),
			run: func() (any, error) {
				return attack.RunActivityChannel(attack.ActivityConfig{NBO: nbo, Bits: bits})
			},
			check: func(r any) string { return checkSent(r.(attack.ChannelResult), want) },
		})
		vals := in.Count[i]
		cases = append(cases, attackCase{
			name: fmt.Sprintf("count-nbo%d", nbo),
			run: func() (any, error) {
				return attack.RunCountChannel(attack.CountConfig{NBO: nbo, Values: vals})
			},
			check: func(r any) string { return checkSent(r.(attack.ChannelResult), vals) },
		})
	}
	for i, v := range in.AES {
		for _, defended := range []bool{false, true} {
			cfg := attack.AESConfig{
				Key: v.Key, TargetByte: 0, Plaintext: v.Plaintext,
				Encryptions: aesEncryptions, NBO: aesNBO, Seed: in.Seed + int64(i),
			}
			name := fmt.Sprintf("aes-%d-undefended", i)
			if defended {
				cfg.Defense = fixedTPRAC
				name = fmt.Sprintf("aes-%d-tprac", i)
			}
			// Target byte 0 sits in T-table 0, whose rows are 0..15.
			trueRow := int(v.Plaintext^v.Key[0]) >> 4
			cases = append(cases, attackCase{
				name: name,
				run:  func() (any, error) { return attack.RunAESAttack(cfg) },
				check: func(r any) string {
					if got := r.(attack.AESResult).TrueRow; got != trueRow {
						return fmt.Sprintf("true row %d, want %d", got, trueRow)
					}
					return ""
				},
			})
		}
	}
	return cases
}

// checkSent verifies the channel carried exactly the drawn message.
func checkSent(r attack.ChannelResult, want []int) string {
	if fmt.Sprint(r.SentValues) != fmt.Sprint(want) {
		return fmt.Sprintf("sent %v, want %v", r.SentValues, want)
	}
	return ""
}

func attackSetup(in Inputs, _ string) (round, error) {
	cases := attackCases(in)
	return &attackRound{cases: cases, results: make([]any, len(cases))}, nil
}

func (a *attackRound) run() error {
	return pool.New(benchWorkers).Run(len(a.cases), func(i int) error {
		res, err := a.cases[i].run()
		if err != nil {
			return fmt.Errorf("%s: %w", a.cases[i].name, err)
		}
		a.results[i] = res
		return nil
	})
}

func (a *attackRound) outputs() ([]output, error) {
	outs := make([]output, len(a.cases))
	for i, c := range a.cases {
		data, err := json.Marshal(a.results[i])
		if err != nil {
			return nil, err
		}
		outs[i] = output{"attack/" + c.name, data}
	}
	return outs, nil
}

// problems applies each case's input check.
func (a *attackRound) problems() []string {
	var out []string
	for i, c := range a.cases {
		if msg := c.check(a.results[i]); msg != "" {
			out = append(out, c.name+": "+msg)
		}
	}
	return out
}

func (a *attackRound) modelLines() []string {
	var lines []string
	for i, c := range a.cases {
		if r, ok := a.results[i].(attack.ChannelResult); ok {
			lines = append(lines, fmt.Sprintf("model: simulated %s bitrate %.1f Kbps, error rate %.3f over %d symbols",
				c.name, r.BitrateKbps, r.ErrorRate, r.Symbols))
		}
	}
	return append(lines, "model: unvalidated: the repository holds no reference results yet (ROADMAP item 5(a)), so no error figure is given")
}

func (a *attackRound) close() error { return nil }
