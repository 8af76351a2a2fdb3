package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared VM the host's speed drifts with
// the neighbours' load, through cache and memory contention rather than
// lost CPU time: the same code ran up to 2x slower for minutes at a
// time, more than the changes the benchmark must resolve. The drift
// slows a fixed piece of work much as it slows the engine, so the timed
// phases probe between reps and scale each rep's times by probeRefS ÷
// (the mean of the probes either side of it). The time-based end-to-end
// metrics then read as on a host where the probe takes probeRefS. The
// probe is the benchmark's own code, identical on every commit, so the
// scaling keeps every ratio between two commits measured on one host.
// The unscaled times are recorded next to the scaled ones.
//
// Of the probes tried, an interpreter-shaped loop tracked the engine
// best: scaling by a pure ALU spin or a pure load chain left about
// 10% run-to-run spread, by a chain plus the interpreter loop about 7%
// (README.md).
const (
	// probeRefS is the probe's median on the 2-vCPU host of the
	// recorded baseline (README.md).
	probeRefS = 0.025
	// probeWords is the table's length: 16 MiB, far beyond a core's L2,
	// so its random loads wait on the shared cache.
	probeWords = 1 << 22
	// probeLoads is the length of the dependent-load chain.
	probeLoads = 1 << 16
	// probeSteps is how many opcodes the interpreter loop runs; it
	// reads them from the table's first probeOps words.
	probeSteps = 1 << 20
	probeOps   = 1 << 16
)

// probeMiB is the resident size of a calibrator's table.
const probeMiB = probeWords * 4 / (1 << 20)

// calibrator runs the probe over a table that is a random single-cycle
// permutation of its indices. The table lives outside the Go heap, so
// it does not move the garbage collector's heap goal (and with it the
// reps' timing and peak RSS); its pages stay resident, and the timed
// reps subtract them from the peak.
type calibrator struct{ next []uint32 }

// probeSink defeats dead-code elimination of the probe.
var probeSink uint32

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeWords)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: i -> next[i] is one cycle through every word,
	// so the chain never settles into a cached loop.
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x >> 32) * uint64(i) >> 32 // in [0, i)
		next[i], next[j] = next[j], next[i]
	}
	return &calibrator{next: next}, nil
}

// probe returns the seconds the fixed work took: a chain of dependent
// loads through the table, then the interpreter loop.
func (c *calibrator) probe() float64 {
	start := time.Now()
	p := uint32(0)
	for i := 0; i < probeLoads; i++ {
		p = c.next[p]
	}
	probeSink = p + c.interpret()
	return time.Since(start).Seconds()
}

// interpret has the shape of the simulators' hot loop: a switch (a
// jump table) on unpredictable opcodes over a small register file, with
// some loads from the table.
func (c *calibrator) interpret() uint32 {
	var r [8]uint32
	mask := uint32(len(c.next) - 1)
	for i := 0; i < probeSteps; i++ {
		switch c.next[i&(probeOps-1)] & 15 {
		case 0:
			r[1] += r[2]
		case 1:
			r[2] ^= r[3] << 1
		case 2:
			r[3] = r[3]*31 + 7
		case 3:
			r[4] = c.next[r[4]&mask]
		case 4:
			r[5] += r[4] >> 3
		case 5:
			if r[5]&1 == 0 {
				r[6]++
			}
		case 6:
			r[7] = r[6] ^ r[1]
		case 7:
			r[0] += r[7]
		case 8:
			r[1] = r[1]<<3 | r[1]>>29
		case 9:
			r[2] -= r[0]
		case 10:
			r[3] += c.next[r[2]&mask]
		case 11:
			r[3] ^= r[5]
		case 12:
			if r[0] > r[1] {
				r[4]++
			}
		case 13:
			r[5] *= 3
		case 14:
			r[6] += r[2] & 0xff
		case 15:
			r[7]--
		}
	}
	return r[0] + r[1] + r[2] + r[3] + r[4] + r[5] + r[6] + r[7]
}
