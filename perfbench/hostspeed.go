package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The shared host this benchmark runs on changes speed by 10–30% over
// minutes, and every host time of a run changes with it. Between
// 30-second stretches of one process, the median run time moved by 12%
// (interquartile) on apache-flow and by 11% on tpcw-pods, so two
// invocations of the same code disagreed by more than any bound a change
// could be held to. A fixed kernel timed between the runs slows down with
// the host: the ratio of the median run time to the kernel's median time
// moved by 2.4% and 3.9% over the same stretches.
//
// Every end-to-end time and rate is therefore reported at the host speed
// at which the kernel takes refNominal: each host time is multiplied by
// refNominal over the kernel's median time in the invocation. The
// unscaled values and the factor are printed on a line of their own.

// refNominal is about the kernel's median time on the 2-CPU host the
// baselines were recorded on.
const refNominal = 18 * time.Millisecond

// hostSpeed times the reference kernel: map inserts, a sort and a hash,
// over buffers allocated once, so a sample allocates nothing and does not
// depend on the program's heap.
type hostSpeed struct {
	m       map[uint32]uint32
	v       []float64
	buf     []byte
	sink    uint64
	samples []float64 // seconds
}

func newHostSpeed() *hostSpeed {
	return &hostSpeed{m: make(map[uint32]uint32, 1<<16), v: make([]float64, 100_000), buf: make([]byte, 1<<20)}
}

// sample times the kernel once.
func (h *hostSpeed) sample() {
	t0 := time.Now()
	clear(h.m)
	for i := uint32(0); i < 50_000; i++ {
		h.m[i*7919%100_003] = i
	}
	x := uint64(1)
	for i := range h.v {
		x = x*6364136223846793005 + 1442695040888963407
		h.v[i] = float64(x >> 11)
	}
	slices.Sort(h.v)
	sum := sha256.Sum256(h.buf)
	h.sink += uint64(len(h.m)) + uint64(sum[0]) + uint64(h.v[0])
	h.samples = append(h.samples, time.Since(t0).Seconds())
}

// after samples the kernel for about a tenth of d, and at least once.
func (h *hostSpeed) after(d time.Duration) {
	for i := 0; i == 0 || time.Duration(i)*10*refNominal < d; i++ {
		h.sample()
	}
}

// factor is refNominal over the kernel's median time: a host time
// multiplied by it is the time at reference speed.
func (h *hostSpeed) factor() float64 { return refNominal.Seconds() / median(h.samples) }

// The reference kernel runs on one CPU and barely notices when the
// hypervisor takes one of the virtual machine's CPUs away for a while,
// which it does in episodes of 20–40 seconds (steal time of up to 9% of
// both CPUs). A workload whose threads hand off across both CPUs slows
// down far more: during such episodes serve-live's median read latency
// doubled. A run during which the host stole more than maxSteal of the
// machine's CPU time is therefore checked and counted as attempted, but
// left out of the timings (timed.steady); the benchmark measures on until
// it has enough undisturbed runs, up to maxTimed.
const (
	maxSteal  = 0.02
	stealTick = 10 * time.Millisecond // USER_HZ is 100 on Linux
)

// stealTicks reads the virtual machine's steal time from /proc/stat, in
// ticks summed over its CPUs; 0 where the kernel does not account it.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// disturbed tells whether stolen ticks over a run of host time d exceed
// maxSteal of the CPU time the machine had in d.
func disturbed(stolen int64, d time.Duration) bool {
	return time.Duration(stolen)*stealTick > time.Duration(maxSteal*float64(runtime.NumCPU())*float64(d))
}
