// Package ticks defines the simulation time base shared by every component.
//
// One tick is 250 picoseconds. This is simultaneously one CPU cycle at the
// simulated 4 GHz core clock and half a DDR5-8000 tCK, so every timing
// parameter in the paper's Table 3 is an integral number of ticks.
package ticks

import "fmt"

// T is a point in simulated time, or a duration, measured in ticks.
type T int64

// Never is a point in time later than any reachable simulation instant.
// Components report it from their NextWork methods to mean "quiescent: I
// have no self-scheduled future work; wake me by event only".
const Never = T(1<<63 - 1)

// PerNS is the number of ticks in one nanosecond.
const PerNS = 4

// PicosPerTick is the real-time length of one tick.
const PicosPerTick = 250

// FromNS converts a duration in nanoseconds to ticks.
// It panics if ns is not representable as a whole number of ticks,
// because silently rounding a DRAM timing constraint would make the
// simulator unfaithful in a way that is very hard to notice later.
func FromNS(ns float64) T {
	t := ns * PerNS
	ti := T(t)
	if float64(ti) != t {
		panic(fmt.Sprintf("ticks: %vns is not a multiple of %dps", ns, PicosPerTick))
	}
	return ti
}

// FromUS converts a duration in microseconds to ticks.
func FromUS(us float64) T { return FromNS(us * 1000) }

// FromMS converts a duration in milliseconds to ticks.
func FromMS(ms float64) T { return FromNS(ms * 1e6) }

// NS reports the duration in nanoseconds.
func (t T) NS() float64 { return float64(t) / PerNS }

// US reports the duration in microseconds.
func (t T) US() float64 { return t.NS() / 1000 }

// MS reports the duration in milliseconds.
func (t T) MS() float64 { return t.NS() / 1e6 }

// Seconds reports the duration in seconds.
func (t T) Seconds() float64 { return t.NS() / 1e9 }

// String formats the time with an adaptive unit, for logs and test output.
func (t T) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < 4_000:
		return fmt.Sprintf("%.2fns", t.NS())
	case t < 4_000_000:
		return fmt.Sprintf("%.3fus", t.US())
	default:
		return fmt.Sprintf("%.3fms", t.MS())
	}
}

// Min returns the smaller of a and b.
func Min(a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Completer receives the completion of an asynchronous memory access: a
// requester hands a Completer and a tag down with the access, and the
// component that finishes it calls Complete with that tag and the time
// the data is available. The tag is the requester's own index for the
// access (a ROB slot, an MSHR index), so one long-lived Completer serves
// every access in flight and issuing one allocates nothing.
type Completer interface {
	Complete(tag uint64, at T)
}

// CompleteFunc adapts a function to Completer, ignoring the tag. A func
// value converts to an interface without allocating.
type CompleteFunc func(at T)

// Complete calls f(at).
func (f CompleteFunc) Complete(_ uint64, at T) { f(at) }
