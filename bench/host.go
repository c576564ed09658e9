package main

import "time"

// The sizing box is a shared two-core VM whose speed moves by 30–40 %
// for minutes at a time: the same binary, seed and request script gave
// 400 req/s in one half-minute and 660 in another, with CPU time per
// request moving in lockstep. host.calib_ms times a fixed kernel at the
// quiet points around every window, so a reader can tell such a swing
// from a change in the program. It is a diagnostic only: no metric is
// rescaled by it.

var calibBuf = make([]uint64, 1<<14)
var calibSink uint64

// calibrate runs four million rounds of xorshift over a 128 KiB table —
// integer ALU plus L1/L2 traffic, no allocation, no system call, about
// 10 ms on the idle sizing box — and returns the milliseconds it took.
func calibrate() float64 {
	const rounds = 4_000_000
	t0 := time.Now()
	x, sum := uint64(88172645463325252), uint64(0)
	mask := uint64(len(calibBuf) - 1)
	for i := 0; i < rounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibBuf[x&mask] += x
		sum += calibBuf[(x>>20)&mask]
	}
	calibSink = sum
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
