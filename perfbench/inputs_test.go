package main

import (
	"reflect"
	"sort"
	"testing"

	"pracsim/internal/attack"
	"pracsim/internal/trace"
)

func TestDrawIsDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 12345} {
		if a, b := Draw(seed), Draw(seed); !reflect.DeepEqual(a, b) || a.String() != b.String() {
			t.Fatalf("seed %d drew different inputs twice", seed)
		}
	}
	if reflect.DeepEqual(Draw(1), Draw(2)) {
		t.Fatal("seeds 1 and 2 drew identical inputs")
	}
}

func classesOf(t *testing.T, names []string) []trace.Class {
	t.Helper()
	var out []trace.Class
	for _, n := range names {
		w, err := trace.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w.Class)
	}
	return out
}

// highRanks ranks the High class by missCost, as drawClasses does.
func highRanks() map[string]int {
	high := trace.CatalogByClass(trace.ClassHigh)
	cost := func(w trace.Workload) float64 { return missCost(trace.SpecFor(w)) }
	sort.SliceStable(high, func(i, j int) bool { return cost(high[i]) < cost(high[j]) })
	rank := map[string]int{}
	for i, w := range high {
		rank[w.Name] = i
	}
	return rank
}

func TestDrawIsClassStratified(t *testing.T) {
	H, M, L := trace.ClassHigh, trace.ClassMedium, trace.ClassLow
	rank := highRanks()
	base := Draw(0)
	for seed := int64(0); seed < 50; seed++ {
		in := Draw(seed)
		for _, c := range []struct {
			name  string
			names []string
			want  []trace.Class
		}{
			{"grid", in.Grid, []trace.Class{H, H, M, L}},
			{"jobs", in.Jobs, []trace.Class{H, H, M, L}},
			{"sweep", in.Sweep, []trace.Class{L}},
		} {
			if got := classesOf(t, c.names); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("seed %d %s: classes %v, want %v", seed, c.name, got, c.want)
			}
			seen := map[string]bool{}
			for _, n := range c.names {
				if seen[n] {
					t.Fatalf("seed %d %s: %s drawn twice", seed, c.name, n)
				}
				seen[n] = true
			}
			if c.want[0] == H {
				// The two High draws are an antithetic pair: mirror
				// ranks, one from each half of the cost ranking.
				a, b := rank[c.names[0]], rank[c.names[1]]
				if a+b != len(rank)-1 || a >= b {
					t.Fatalf("seed %d %s: High ranks %d and %d are not a mirror pair of %d", seed, c.name, a, b, len(rank))
				}
			}
		}
		for i, nbo := range covertNBOs {
			if len(in.Activity[i]) != activityBits || len(in.Count[i]) != countSymbols {
				t.Fatalf("seed %d: message lengths %d/%d", seed, len(in.Activity[i]), len(in.Count[i]))
			}
			ones := 0
			for _, b := range in.Activity[i] {
				if b {
					ones++
				}
			}
			if ones != activityBits/2 {
				t.Fatalf("seed %d: activity message at NBO %d has %d ones, want %d", seed, nbo, ones, activityBits/2)
			}
			space := attack.CountConfig{NBO: nbo}.SymbolSpace()
			for _, v := range in.Count[i] {
				if v < 0 || v >= space {
					t.Fatalf("seed %d: count symbol %d outside [0,%d)", seed, v, space)
				}
			}
			// Every seed sends the same symbols in its own order.
			if got, want := sorted(in.Count[i]), sorted(base.Count[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: count symbols at NBO %d are %v, seed 0's are %v", seed, nbo, got, want)
			}
		}
		if len(in.AES) != aesVictims {
			t.Fatalf("seed %d: %d AES victims", seed, len(in.AES))
		}
	}
}

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// Over many seeds the antithetic draw reaches every High workload but
// the median one of an odd-sized class, which has no mirror.
func TestDrawCoversTheCatalog(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 200; seed++ {
		for _, n := range Draw(seed).Grid[:2] {
			seen[n] = true
		}
	}
	rank := highRanks()
	for name, r := range rank {
		if !seen[name] && 2*r != len(rank)-1 {
			t.Errorf("200 seeds never drew %s (rank %d of %d)", name, r, len(rank))
		}
	}
}
