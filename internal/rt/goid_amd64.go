package rt

import (
	"math/bits"
	"unsafe"
)

// getg returns the current goroutine's runtime g (goid_amd64.s).
func getg() unsafe.Pointer

const (
	// goidScan bounds the prefix of g searched for the id field (at 160
	// on go1.24). g is several hundred bytes, so the scan stays inside
	// its allocation.
	goidScan = 256
	// goidProbes is how many fresh goroutines must agree on the offset.
	goidProbes = 4
)

// goidOff is the offset of the goroutine id within g, or -1 when
// calibration failed and goid parses runtime.Stack instead.
var goidOff = calibrateGoid()

// goid returns the current goroutine's runtime id.
func goid() int64 {
	if off := goidOff; off >= 0 {
		return *(*int64)(unsafe.Add(getg(), off))
	}
	return parseGoid()
}

// goidWords returns a mask of the words in the first goidScan bytes of
// the calling goroutine's g that equal its runtime.Stack id: bit i stands
// for offset 8*i.
func goidWords() uint32 {
	id := parseGoid()
	gp := getg()
	var m uint32
	for i := 0; i < goidScan/8; i++ {
		if *(*int64)(unsafe.Add(gp, 8*i)) == id {
			m |= 1 << i
		}
	}
	return m
}

// calibrateGoid finds the offset of the goroutine id within g, checking
// every candidate against runtime.Stack rather than trusting a layout.
// A word must hold the parsed id on the calling goroutine and on
// goidProbes freshly spawned ones: a field that merely happens to equal
// one id, such as the spawner's id in parentGoid, fails on the others.
// It returns -1 unless exactly one offset survives.
func calibrateGoid() int {
	m := goidWords()
	probes := make(chan uint32)
	for i := 0; i < goidProbes; i++ {
		go func() { probes <- goidWords() }()
	}
	for i := 0; i < goidProbes; i++ {
		m &= <-probes
	}
	if bits.OnesCount32(m) != 1 {
		return -1
	}
	return 8 * bits.TrailingZeros32(m)
}
