package cache

import "fmt"

// IPStride is the instruction-pointer stride prefetcher the paper attaches
// to the L1 data cache (Table 3). It tracks, per instruction address, the
// last accessed line and the last observed stride; two consecutive accesses
// with the same stride trigger prefetches of the next `degree` lines along
// that stride.
type IPStride struct {
	entries []ipEntry
	mask    uint64
	degree  int
	targets []uint64 // Observe's result buffer, reused across calls
}

type ipEntry struct {
	pc       uint64
	lastLine uint64
	stride   int64
	conf     int8
	valid    bool
}

// NewIPStride builds a prefetcher with a power-of-two table size.
func NewIPStride(tableSize, degree int) (*IPStride, error) {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		return nil, fmt.Errorf("cache: IP-stride table size (%d) must be a positive power of two", tableSize)
	}
	if degree <= 0 {
		return nil, fmt.Errorf("cache: IP-stride degree must be positive, got %d", degree)
	}
	return &IPStride{
		entries: make([]ipEntry, tableSize),
		mask:    uint64(tableSize - 1),
		degree:  degree,
		targets: make([]uint64, 0, degree),
	}, nil
}

// Observe records a demand access and returns the lines to prefetch. The
// returned slice is the prefetcher's own buffer: it stays valid only until
// the next call to Observe.
func (p *IPStride) Observe(pc, lineAddr uint64) []uint64 {
	e := &p.entries[(pc>>2)&p.mask]
	if !e.valid || e.pc != pc {
		*e = ipEntry{pc: pc, lastLine: lineAddr, valid: true}
		return nil
	}
	stride := int64(lineAddr) - int64(e.lastLine)
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastLine = lineAddr
	if e.conf < 2 {
		return nil
	}
	targets := p.targets[:0]
	next := int64(lineAddr)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next < 0 {
			break
		}
		targets = append(targets, uint64(next))
	}
	return targets
}
