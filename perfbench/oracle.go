package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
)

// Violation kinds the oracle reports. Each one makes the run fail.
const (
	vContent   = "content"        // bytes differ from the version they claim
	vNever     = "never-written"  // a version no write produced
	vRegress   = "regression"     // a reader saw a page go back at one store
	vNotFound  = "not-found"      // a page that exists was reported missing
	vConverge  = "not-converged"  // a replica lags the last acked version after quiesce
	vLost      = "lost-on-reopen" // an acknowledged write is missing after reopen
	vOpFailure = "op-error"       // the call itself errored or timed out
)

// appendContent appends the deterministic body of version v of page to b.
// The header names the page and version; the filler is drawn from both and
// the seed, so any corruption, mix-up or invented version is detectable by
// regenerating it.
func appendContent(b []byte, seed int64, page string, v uint64, size int) []byte {
	size += len(b)
	b = append(b, page...)
	b = append(b, '@')
	b = strconv.AppendUint(b, v, 10)
	b = append(b, ';')
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ v*0xBF58476D1CE4E5B9
	for i := 0; i < len(page); i++ {
		x = (x ^ uint64(page[i])) * 0x100000001B3
	}
	for len(b) < size {
		// splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for i := 0; i < 8 && len(b) < size; i++ {
			b = append(b, 'a'+byte(z%26))
			z >>= 8
		}
	}
	return b
}

// parseHeader returns the page and version a body claims.
func parseHeader(b []byte) ([]byte, uint64, bool) {
	at := bytes.IndexByte(b, '@')
	semi := bytes.IndexByte(b, ';')
	if at <= 0 || semi <= at+1 || semi-at > 20 {
		return nil, 0, false
	}
	var v uint64
	for _, c := range b[at+1 : semi] {
		if c < '0' || c > '9' {
			return nil, 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return b[:at], v, true
}

// pageState is what the generator knows about one page. Each page has
// exactly one writing goroutine, so versions are issued in order.
type pageState struct {
	issued atomic.Uint64 // highest version handed to a write, set before it is sent
	acked  atomic.Uint64 // highest version acknowledged to its writer
}

// oracle checks every output against what the object's strategy allows.
type oracle struct {
	seed  int64
	size  int
	names []string
	pages []pageState

	stale atomic.Int64 // reads older than the newest version acked at release
	reads atomic.Int64

	mu     sync.Mutex
	counts map[string]int
	first  []string // first few violations, for the report
}

func newOracle(seed int64, names []string, size int) *oracle {
	return &oracle{seed: seed, size: size, names: names, pages: make([]pageState, len(names)), counts: map[string]int{}}
}

func (o *oracle) violate(kind, detail string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts[kind]++
	if len(o.first) < 8 {
		o.first = append(o.first, kind+": "+detail)
	}
}

// violations returns the total count and the first few descriptions.
func (o *oracle) violations() (int, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, c := range o.counts {
		n += c
	}
	return n, append([]string(nil), o.first...)
}

// issue allocates the next version of page p for its single writer.
func (o *oracle) issue(p int) uint64 { return o.pages[p].issued.Add(1) }

// ack records that version v of page p was acknowledged.
func (o *oracle) ack(p int, v uint64) { o.pages[p].acked.Store(v) }

// acked returns the newest acknowledged version of page p.
func (o *oracle) acked(p int) uint64 { return o.pages[p].acked.Load() }

// body is the content of version v of page p.
func (o *oracle) body(p int, v uint64) []byte {
	return appendContent(make([]byte, 0, o.size), o.seed, o.names[p], v, o.size)
}

// isNotFound reports a store's not-found answer.
func isNotFound(err error) bool {
	var re *core.RemoteError
	return errors.As(err, &re) && re.Status == msg.StatusNotFound
}

// checkRead validates one read of page p by reader r. floor is the newest
// version acknowledged when the read was released; a result below it is
// stale (allowed, counted) and a result that fails any rule is a violation.
// It reports whether the read passed.
func (o *oracle) checkRead(r *client, p int, body []byte, err error, floor uint64) bool {
	if err != nil {
		if isNotFound(err) {
			o.violate(vNotFound, fmt.Sprintf("%s at %s", o.names[p], r.store))
		} else {
			o.violate(vOpFailure, fmt.Sprintf("read %s at %s: %v", o.names[p], r.store, err))
		}
		return false
	}
	v, ok := o.verify(r, p, body)
	if !ok {
		return false
	}
	if v < r.seen[p] {
		o.violate(vRegress, fmt.Sprintf("%s at %s: v%d after v%d", o.names[p], r.store, v, r.seen[p]))
		return false
	}
	r.seen[p] = v
	o.reads.Add(1)
	if v < floor {
		o.stale.Add(1)
	}
	return true
}

// verify checks that body is exactly some written version of page p and
// returns that version. The expected bytes are regenerated into the
// reader's scratch buffer.
func (o *oracle) verify(r *client, p int, body []byte) (uint64, bool) {
	name, v, ok := parseHeader(body)
	if !ok || string(name) != o.names[p] || v == 0 {
		o.violate(vContent, fmt.Sprintf("%s: unparseable or misnamed body", o.names[p]))
		return 0, false
	}
	if v > o.pages[p].issued.Load() {
		o.violate(vNever, fmt.Sprintf("%s v%d (issued %d)", o.names[p], v, o.pages[p].issued.Load()))
		return 0, false
	}
	r.scratch = appendContent(r.scratch[:0], o.seed, o.names[p], v, o.size)
	if !bytes.Equal(body, r.scratch) {
		o.violate(vContent, fmt.Sprintf("%s v%d: bytes differ", o.names[p], v))
		return 0, false
	}
	return v, true
}

// converged polls every page through every reader until each serves at
// least the newest acknowledged version, for at most quiesce. Pages still
// behind at the deadline are violations of kind vConverge. It returns the
// number of reads made.
func (o *oracle) converged(readers []*client, quiesce time.Duration) int {
	deadline := time.Now().Add(quiesce)
	reads := 0
	for _, r := range readers {
		for p := range o.names {
			for {
				want := o.acked(p)
				body, err := r.get(o.names[p])
				reads++
				if !o.checkRead(r, p, body, err, want) {
					break
				}
				if r.seen[p] >= want {
					break
				}
				if time.Now().After(deadline) {
					o.violate(vConverge, fmt.Sprintf("%s at %s: v%d, acked v%d", o.names[p], r.store, r.seen[p], want))
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return reads
}

// survived reads every page once through r after a reopen: each must hold
// at least its newest acknowledged version. It returns the number of reads.
func (o *oracle) survived(r *client) int {
	for p := range o.names {
		want := o.acked(p)
		body, err := r.get(o.names[p])
		if err != nil && isNotFound(err) {
			o.violate(vLost, fmt.Sprintf("%s missing, acked v%d", o.names[p], want))
			continue
		}
		if !o.checkRead(r, p, body, err, want) {
			continue
		}
		if r.seen[p] < want {
			o.violate(vLost, fmt.Sprintf("%s v%d after reopen, acked v%d", o.names[p], r.seen[p], want))
		}
	}
	return len(o.names)
}
