package main

import "time"

// The reference kernel is frozen: it lives here, touches no repo code, and
// never changes with the system under test. A noisy neighbour or a slow
// window of the host moves it together with every op, so its times say
// whether two runs saw the same host. It is a drift detector only: it shares
// the process's heap and caches with the system, so a change to the system
// can move it, and no gated metric is divided by it.
const (
	refRows  = 400_000
	refBuild = 1 << 15
	refEvery = 250 * time.Millisecond
)

type refKernel struct {
	build, probe []int64
	head         []int32 // open-addressing table, -1 = empty
	last         time.Time
	samples      []float64 // seconds
	sink         int64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		build: make([]int64, refBuild),
		probe: make([]int64, refRows),
		head:  make([]int32, 2*refBuild),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.build {
		k.build[i] = int64(2 * i) // unique keys; half the probes match
	}
	for i := range k.probe {
		x = splitmix(x)
		k.probe[i] = int64(x % (2 * refBuild))
	}
	return k
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// run is one hash join of 400k int64 probe rows against a 32k-row build
// side that stays cache-resident: build, then probe and count matches.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	mask := uint64(len(k.head) - 1)
	for i := range k.head {
		k.head[i] = -1
	}
	for i, v := range k.build {
		h := splitmix(uint64(v)) & mask
		for k.head[h] >= 0 {
			h = (h + 1) & mask
		}
		k.head[h] = int32(i)
	}
	var matches int64
	for _, v := range k.probe {
		h := splitmix(uint64(v)) & mask
		for r := k.head[h]; r >= 0; r = k.head[h] {
			if k.build[r] == v {
				matches++
				break
			}
			h = (h + 1) & mask
		}
	}
	k.sink += matches
	return time.Since(t0)
}

// interleave runs the kernel before an op unless it ran within refEvery:
// running it before every one of ~60 sub-millisecond ops would spend more
// of the window on the detector than on the system.
func (k *refKernel) interleave() {
	if time.Since(k.last) < refEvery {
		return
	}
	k.samples = append(k.samples, k.run().Seconds())
	k.last = time.Now()
}
