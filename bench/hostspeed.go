package main

import "time"

// The benchmark's host time is scaled to a fixed host speed. On a shared
// virtual machine the speed a process gets drifts by 20-60 % within
// minutes, as neighbours come and go, far more than the regressions the
// end-to-end bounds must catch. So before the first measured unit and
// after each one, the benchmark times a fixed reference kernel that no
// change to the repository can alter, and scales the unit's host times by
// refNominalMs over the mean of the two reference times around it: a
// BENCHMARK.json time is the time the unit would have taken on a host on
// which the kernel takes refNominalMs. Wall-clock times are printed
// beside them as wall.*.
//
// The kernel runs four independent arithmetic chains with data-dependent
// branches, then fills an 8 MB open-addressing hash table with 300 000
// pseudo-random keys, three times. Of the kernels timed beside simulated
// samples (dependent arithmetic, random reads over 4 MB and 64 MB,
// streaming copies, sorting, allocation with collection, Go map inserts,
// this table), chains plus map inserts tracked the simulator's slowdowns
// best: the chains follow the host's instruction throughput, the inserts
// its memory system. The table tracks like a Go map but lives outside the
// Go heap, so the kernel allocates nothing: it moves neither the
// collector's pacing nor the scavenger's, and so neither the memory
// metrics nor the page faults of a unit.
const refNominalMs = 40.0

// refTable is the kernel's hash table: key, value pairs in 2^19 slots. A
// global array without pointers is not part of the Go heap.
var refTable [1 << 20]uint64

// refSink keeps the compiler from removing the kernel's arithmetic.
var refSink uint64

// refKernel runs the reference kernel once and returns its wall time in ms.
func refKernel() float64 {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	var acc uint64
	for i := 0; i < 3_000_000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d += a ^ b
		if (a^c)&3 == 0 {
			acc += d
		} else if b&5 == 1 {
			acc ^= c
		}
	}
	const slots = uint64(len(refTable) / 2)
	for pass := 0; pass < 3; pass++ {
		clear(refTable[:])
		x := uint64(88172645463325252)
		for i := 0; i < 300_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			key := x&0x3fffff | 1<<40 // never 0, the empty slot
			for h := (key * 0x9E3779B97F4A7C15) >> 45; ; h++ {
				slot := 2 * (h % slots)
				if refTable[slot] == key {
					refTable[slot+1] += uint64(i)
					break
				}
				if refTable[slot] == 0 {
					refTable[slot], refTable[slot+1] = key, uint64(i)
					break
				}
				acc++
			}
		}
	}
	refSink += acc
	return ms(time.Since(t0))
}

// unitMark closes one measured unit: how many run and set-up times the
// phase held after it, and its wall time.
type unitMark struct {
	runs, setups int
	busy         time.Duration
}

// scaleToRef fills the phase's reference-speed times from its wall times,
// its unit marks and the reference times around each unit.
func (p *phase) scaleToRef() {
	p.runRefMs, p.setupRefMs, p.busyRefMs, p.speed = nil, nil, 0, nil
	runs, setups := 0, 0
	for u, m := range p.units {
		s := refNominalMs / ((p.refMs[u] + p.refMs[u+1]) / 2)
		p.speed = append(p.speed, s)
		for _, v := range p.runMs[runs:m.runs] {
			p.runRefMs = append(p.runRefMs, v*s)
		}
		for _, v := range p.setupMs[setups:m.setups] {
			p.setupRefMs = append(p.setupRefMs, v*s)
		}
		p.busyRefMs += ms(m.busy) * s
		runs, setups = m.runs, m.setups
	}
}
