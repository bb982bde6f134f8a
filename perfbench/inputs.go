package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"pracsim/internal/aes"
	"pracsim/internal/attack"
	"pracsim/internal/trace"
)

// Inputs is everything a seed draws. The program under test receives
// only these values, so any run is reproduced from its seed alone.
type Inputs struct {
	Seed int64
	// Grid is the grid-mixed workload set: 2 High, 1 Medium, 1 Low.
	Grid []string
	// Sweep is the single Low workload of sweep-noreset.
	Sweep []string
	// Jobs is the service-jobs grid: 2 High, 1 Medium, 1 Low.
	Jobs []string
	// Activity holds one message per covert NBO for the activity channel.
	Activity [][]bool
	// Count holds one message per covert NBO for the count channel.
	Count [][]int
	// AES holds the side-channel victims.
	AES []AESInput
}

// AESInput is one T-table attack victim: a key and the fixed plaintext
// byte at the target position.
type AESInput struct {
	Key       []byte
	Plaintext byte
}

// Covert-channel Back-Off thresholds, as in the paper's Table 2.
var covertNBOs = []int{256, 512, 1024}

const (
	activityBits = 24 // bits per activity-channel message
	countSymbols = 12 // symbols per count-channel message
	aesVictims   = 6  // keys per run
)

// stream returns an independent generator for one named draw, so adding
// a draw to one workload never shifts another workload's inputs.
func stream(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// drawClasses draws distinct catalog workloads: want[c] of each class
// c, in class order (High, Medium, Low). Within a class the workloads
// are ranked by missCost and drawn in antithetic pairs: a draw of rank
// r from the cheaper half comes with its mirror of rank n-1-r from the
// dearer half, so every seed gets a comparable mix of light and heavy
// workloads and run-to-run spread reflects the program rather than the
// luck of the draw. An odd want[c] adds one draw from the whole class.
func drawClasses(rng *rand.Rand, want map[trace.Class]int) []string {
	var out []string
	for _, c := range []trace.Class{trace.ClassHigh, trace.ClassMedium, trace.ClassLow} {
		pool := trace.CatalogByClass(c)
		cost := make(map[string]float64, len(pool))
		for _, w := range pool {
			cost[w.Name] = missCost(trace.SpecFor(w))
		}
		sort.SliceStable(pool, func(i, j int) bool { return cost[pool[i].Name] < cost[pool[j].Name] })
		n, pairs := len(pool), want[c]/2
		for p := 0; p < pairs; p++ {
			// Pair p draws from its own stratum of the cheaper half.
			lo, hi := p*(n/2)/pairs, (p+1)*(n/2)/pairs
			r := lo + rng.Intn(hi-lo)
			out = append(out, pool[r].Name, pool[n-1-r].Name)
		}
		if want[c]%2 == 1 {
			out = append(out, pool[rng.Intn(n)].Name)
		}
	}
	return out
}

// missCost predicts a workload's host cost per instruction from its
// synthetic spec: the share of instructions that miss the hot set,
// with streamed misses (open-row hits) weighted half. Across the High
// class it tracks measured grid time far better than the miss share
// alone.
func missCost(sp trace.SynthSpec) float64 {
	return sp.MemRatio * (1 - sp.HotFrac) * (1 - sp.StreamFrac/2)
}

// Draw derives a run's inputs from its seed.
func Draw(seed int64) Inputs {
	H, M, L := trace.ClassHigh, trace.ClassMedium, trace.ClassLow
	in := Inputs{
		Seed:  seed,
		Grid:  drawClasses(stream(seed, "grid"), map[trace.Class]int{H: 2, M: 1, L: 1}),
		Sweep: drawClasses(stream(seed, "sweep"), map[trace.Class]int{L: 1}),
		Jobs:  drawClasses(stream(seed, "jobs"), map[trace.Class]int{H: 2, M: 1, L: 1}),
	}
	// Messages are drawn as shuffles of a fixed multiset: half the
	// activity bits are ones, and the count symbols spread evenly over
	// the symbol space. A channel's host cost grows with the ones and
	// the counts it sends, so every seed sends the same amount.
	rng := stream(seed, "covert")
	for _, nbo := range covertNBOs {
		bits := make([]bool, activityBits)
		for i, p := range rng.Perm(activityBits) {
			bits[i] = p < activityBits/2
		}
		in.Activity = append(in.Activity, bits)
		space := attack.CountConfig{NBO: nbo}.SymbolSpace()
		vals := make([]int, countSymbols)
		for i, p := range rng.Perm(countSymbols) {
			vals[i] = (2*p + 1) * space / (2 * countSymbols)
		}
		in.Count = append(in.Count, vals)
	}
	rng = stream(seed, "aes")
	for i := 0; i < aesVictims; i++ {
		key := make([]byte, aes.KeySize)
		rng.Read(key)
		in.AES = append(in.AES, AESInput{Key: key, Plaintext: byte(rng.Intn(256))})
	}
	return in
}

// String prints the drawn inputs, one line each, for the report.
func (in Inputs) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "inputs: seed %d\n", in.Seed)
	fmt.Fprintf(&b, "inputs: grid-mixed workloads %s\n", strings.Join(in.Grid, ","))
	fmt.Fprintf(&b, "inputs: sweep-noreset workload %s\n", strings.Join(in.Sweep, ","))
	fmt.Fprintf(&b, "inputs: service-jobs workloads %s\n", strings.Join(in.Jobs, ","))
	for i, nbo := range covertNBOs {
		bits := make([]byte, len(in.Activity[i]))
		for j, bit := range in.Activity[i] {
			bits[j] = '0'
			if bit {
				bits[j] = '1'
			}
		}
		fmt.Fprintf(&b, "inputs: activity NBO %d bits %s\n", nbo, bits)
		fmt.Fprintf(&b, "inputs: count NBO %d values %v\n", nbo, in.Count[i])
	}
	for i, v := range in.AES {
		fmt.Fprintf(&b, "inputs: aes victim %d key %x plaintext %02x\n", i, v.Key, v.Plaintext)
	}
	return b.String()
}
