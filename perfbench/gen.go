package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// slices is how many consecutive time slices a phase is cut into. A
// latency or rate is reported as the median of its per-slice values, so a
// burst of host noise in one slice moves the result by at most one rank.
const slices = 10

// sample is one completed op: when it was released, relative to the
// phase's start, and its latency from release.
type sample struct {
	at, lat time.Duration
}

// phase is what the two generator goroutines measured in one phase.
type phase struct {
	reads, writes []sample
	late          []time.Duration // how late the generator woke, for ops released after a sleep
	backlogMax    int             // most ops overdue at once
	attempted     int
	failed        int
	dur           time.Duration // the phase's scheduled length
	elapsed       time.Duration
}

func (ph *phase) completed() int { return ph.attempted - ph.failed }

// run drives both workers for dur. With rate > 0 the load is open-loop:
// each goroutine offers rate/2 ops/s on a fixed schedule, offset by half an
// interval from the other. With rate == 0 each goroutine issues its next
// call as soon as the previous one returns (closed loop).
//
// Release rule: an op that falls due while its goroutine sleeps is
// released when the goroutine wakes, and the wake-up's lateness is
// recorded; an op that falls due while the goroutine is busy with a call is
// timed from the moment it was due, so a stall counts against every op it
// delays. The sleep granularity of the host (about 1 ms on small VMs) thus
// shows up as generator lateness, not as program latency.
func (d *deployment) run(rate float64, dur time.Duration) phase {
	var out [2]phase
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for g := range d.workers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = d.drive(d.workers[g], g, rate, start, dur)
		}(g)
	}
	wg.Wait()
	ph := phase{dur: dur, elapsed: time.Since(start)}
	for _, o := range out {
		ph.reads = append(ph.reads, o.reads...)
		ph.writes = append(ph.writes, o.writes...)
		ph.late = append(ph.late, o.late...)
		ph.backlogMax = max(ph.backlogMax, o.backlogMax)
		ph.attempted += o.attempted
		ph.failed += o.failed
	}
	return ph
}

func (d *deployment) drive(w *worker, g int, rate float64, start time.Time, dur time.Duration) phase {
	var ph phase
	end := start.Add(dur)
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(2 * float64(time.Second) / rate)
		n := int(dur / interval)
		ph.reads = make([]sample, 0, n)
		ph.late = make([]time.Duration, 0, n)
	}
	lastWake := start
	for k := 0; ; k++ {
		var release time.Time
		if rate == 0 {
			release = time.Now()
			if !release.Before(end) {
				break
			}
		} else {
			due := start.Add(time.Duration(k)*interval + time.Duration(g)*interval/2)
			if !due.Before(end) {
				break
			}
			if now := time.Now(); now.Before(due) {
				time.Sleep(due.Sub(now))
				lastWake = time.Now()
				ph.late = append(ph.late, lastWake.Sub(due))
			} else {
				ph.backlogMax = max(ph.backlogMax, int(now.Sub(due)/interval)+1)
			}
			release = due
			if lastWake.After(due) {
				release = lastWake
			}
		}
		write, c, p := w.next()
		ph.attempted++
		if !d.do(write, c, p) {
			ph.failed++
			continue
		}
		d.done.Add(1)
		s := sample{at: release.Sub(start), lat: time.Since(release)}
		if write {
			ph.writes = append(ph.writes, s)
		} else {
			ph.reads = append(ph.reads, s)
		}
	}
	return ph
}

// do performs one op through client c and hands its output to the oracle.
// It reports whether the op succeeded and passed.
func (d *deployment) do(write bool, c *client, p int) bool {
	name := d.orc.names[p]
	if write {
		v := d.orc.issue(p)
		body := d.orc.body(p, v)
		c.ep.beginCall()
		err := c.put(name, body)
		c.ep.endCall(true)
		if err != nil {
			d.orc.violate(vOpFailure, "write "+name+" at "+c.store+": "+err.Error())
			return false
		}
		d.orc.ack(p, v)
		c.writes++
		return true
	}
	floor := d.orc.acked(p)
	c.ep.beginCall()
	body, err := c.get(name)
	c.ep.endCall(false)
	return d.orc.checkRead(c, p, body, err, floor)
}

// capacity finds max_rate_ops: the completion rate of both goroutines in a
// closed loop (the median over the phase's slices), which is the highest
// offered rate they can sustain without a growing backlog. If read or
// write p99 at that rate breaks the limit, open-loop probes step down by
// 10 % until one meets it. It also returns the process CPU per op in the
// closed loop, where the host's idle wake-ups no longer dominate it, and
// how many ops the phases attempted.
func (d *deployment) capacity(dur time.Duration, limit time.Duration) (rate, cpu float64, probes, attempted int) {
	m := d.measure(0, dur)
	ph := m.ph
	cpu = m.cpuPerOp
	attempted = ph.attempted
	var done [slices]int
	for _, xs := range [][]sample{ph.reads, ph.writes} {
		for _, s := range xs {
			if i := int((s.at + s.lat) * slices / dur); i < slices {
				done[i]++
			}
		}
	}
	rates := make([]float64, slices)
	for i, n := range done {
		rates[i] = float64(n) * slices / dur.Seconds()
	}
	x := median(rates)
	rate = x
	for !meetsLimit(ph, limit) && probes < 5 {
		probes++
		rate = x * (1 - 0.1*float64(probes))
		ph = d.run(rate, dur)
		attempted += ph.attempted
	}
	return rate, cpu, probes, attempted
}

func meetsLimit(ph phase, limit time.Duration) bool {
	return ph.failed == 0 && ph.quantile(ph.reads, 0.99) <= limit && ph.quantile(ph.writes, 0.99) <= limit
}

// quantile returns the median over the phase's time slices of each
// slice's q-quantile latency (0 when xs is empty).
func (ph *phase) quantile(xs []sample, q float64) time.Duration {
	var per [slices][]time.Duration
	for _, s := range xs {
		i := min(int(s.at*slices/ph.dur), slices-1)
		per[i] = append(per[i], s.lat)
	}
	var vals []float64
	for _, lats := range per {
		if len(lats) > 0 {
			vals = append(vals, float64(quantile(lats, q)))
		}
	}
	return time.Duration(median(vals))
}

// median returns the median of xs (0 when empty), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts xs in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// newRand returns generator goroutine g's op stream source for seed.
func newRand(seed int64, g int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(g)))
}
