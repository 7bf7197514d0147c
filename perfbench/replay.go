package main

import (
	"os"
	"runtime"
	"time"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics"
	"repro/internal/wal"
)

// The replays time single layers in isolation on inputs captured during
// the traced phase, through the layer packages' exported functions.

// replayBudget bounds the time each timed replay loop runs.
const replayBudget = 200 * time.Millisecond

// passes runs pass repeatedly, at least twice and until the budget is
// spent, and returns the mean time of one pass and the mean heap
// allocations of one pass. The first pass warms caches and is not counted.
func passes(pass func()) (time.Duration, float64) {
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for n < 2 || time.Since(start) < replayBudget {
		pass()
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return el / time.Duration(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// replayMsg decodes and re-encodes the captured frames.
func replayMsg(frames [][]byte) (encNs, decNs, allocs float64) {
	if len(frames) == 0 {
		return 0, 0, 0
	}
	decoded := make([]*msg.Message, len(frames))
	for i, f := range frames {
		m, err := msg.DecodeAlias(f)
		if err != nil {
			return 0, 0, 0
		}
		decoded[i] = m
	}
	dec, decAllocs := passes(func() {
		for _, f := range frames {
			_, _ = msg.DecodeAlias(f)
		}
	})
	enc, encAllocs := passes(func() {
		for _, m := range decoded {
			_ = msg.Encode(m)
		}
	})
	n := float64(len(frames))
	return float64(enc) / n, float64(dec) / n, (decAllocs + encAllocs) / n
}

// replaySemantics applies the captured client invocations, in order, to a
// fresh semantics object per pass.
func replaySemantics(invs []msg.Invocation, fresh func() semantics.Object) float64 {
	if len(invs) == 0 {
		return 0
	}
	per, _ := passes(func() {
		obj := fresh()
		for _, inv := range invs {
			_, _ = obj.Invoke(inv)
		}
	})
	return float64(per) / float64(len(invs))
}

// replayEngine submits the captured update stream, as the permanent store
// received it, to a fresh ordering engine of the object's model. The engine
// is seeded just below the first captured write of each client, so the
// stream is applicable from its start.
func replayEngine(ups []coherence.Update, model coherence.Model) float64 {
	if len(ups) == 0 {
		return 0
	}
	floor := ids.VersionVec{}
	for _, u := range ups {
		if s, ok := floor[u.Write.Client]; !ok || u.Write.Seq-1 < s {
			floor[u.Write.Client] = u.Write.Seq - 1
		}
	}
	stream := make([]coherence.Update, len(ups))
	copy(stream, ups)
	for i := range stream {
		stream[i].GlobalSeq = uint64(i + 1)
	}
	per, _ := passes(func() {
		eng, err := coherence.NewEngine(model)
		if err != nil {
			return
		}
		eng.Seed(floor, 1)
		for i := range stream {
			u := stream[i]
			eng.Submit(&u)
		}
	})
	return float64(per) / float64(len(stream))
}

// replayWAL appends each captured update to a fresh write-ahead log in a
// temporary directory under dir and syncs after each, as fsync=always does
// for an unbatched write, and returns the median append+sync time.
func replayWAL(ups []coherence.Update, dir string) (time.Duration, error) {
	const n = 256
	if len(ups) == 0 {
		return 0, nil
	}
	tmp, err := os.MkdirTemp(dir, "wal-replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	log, _, err := wal.Open(tmp)
	if err != nil {
		return 0, err
	}
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		u := ups[i%len(ups)]
		start := time.Now()
		if err := log.AppendUpdate(&u); err != nil {
			_ = log.Close()
			return 0, err
		}
		if err := log.Sync(); err != nil {
			_ = log.Close()
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	if err := log.Close(); err != nil {
		return 0, err
	}
	return quantile(times, 0.5), nil
}
