package main

// splitMix is a small deterministic generator, so the inputs a seed
// produces do not depend on math/rand's sequence across Go versions.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix {
	return &splitMix{s: seed*0x2545f4914f6cdd1d + 0x9e3779b97f4a7c15}
}

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bits returns a uniform value of k bits.
func (r *splitMix) bits(k int) uint64 { return r.next() >> (64 - uint(k)) }

// intn returns a uniform value in [0, n).
func (r *splitMix) intn(n int) int { return int((r.next() >> 11) % uint64(n)) }
