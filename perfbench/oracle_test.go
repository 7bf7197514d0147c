package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
)

// fakeReader serves fixed bodies per page, standing in for a bound handle.
func fakeReader(o *oracle, serve func(p int) ([]byte, error)) *client {
	return &client{
		store: "fake",
		seen:  make([]uint64, len(o.names)),
		get: func(page string) ([]byte, error) {
			for p, n := range o.names {
				if n == page {
					return serve(p)
				}
			}
			return nil, errors.New("no such page")
		},
	}
}

// count returns how many violations of one kind were reported.
func (o *oracle) count(kind string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counts[kind]
}

func newTestOracle() *oracle {
	o := newOracle(7, []string{"a.html", "b.html"}, 64)
	for p := range o.names {
		for v := uint64(1); v <= 3; v++ {
			o.ack(p, o.issue(p))
		}
	}
	return o
}

func TestOracleAcceptsWhatTheStrategyAllows(t *testing.T) {
	o := newTestOracle()
	r := fakeReader(o, nil)
	v4 := o.issue(0) // in flight: issued, not yet acknowledged
	for _, v := range []uint64{1, 2, 2, v4} {
		if !o.checkRead(r, 0, o.body(0, v), nil, 3) {
			t.Fatalf("read of v%d rejected", v)
		}
	}
	if n, first := o.violations(); n != 0 {
		t.Fatalf("violations on a valid history: %v", first)
	}
	if got := o.stale.Load(); got != 3 {
		t.Fatalf("stale reads = %d, want 3 (v1, v2, v2 are older than acked v3)", got)
	}
	o.ack(0, v4)
	latest := fakeReader(o, func(p int) ([]byte, error) { return o.body(p, o.acked(p)), nil })
	if o.converged([]*client{latest}, time.Second); o.count(vConverge) != 0 {
		t.Fatal("a converged replica was reported behind")
	}
	o.survived(latest)
	if n, first := o.violations(); n != 0 {
		t.Fatalf("violations on converged replicas: %v", first)
	}
}

// Each negative control doctors one output and expects exactly its
// violation kind.
func TestOracleNegativeControls(t *testing.T) {
	cases := []struct {
		name string
		want string
		feed func(o *oracle)
	}{
		{"bytes differ from the claimed version", vContent, func(o *oracle) {
			b := o.body(0, 2)
			b[len(b)-1] ^= 1
			o.checkRead(fakeReader(o, nil), 0, b, nil, 0)
		}},
		{"body of another page", vContent, func(o *oracle) {
			o.checkRead(fakeReader(o, nil), 0, o.body(1, 2), nil, 0)
		}},
		{"version never written", vNever, func(o *oracle) {
			o.checkRead(fakeReader(o, nil), 0, o.body(0, 4), nil, 0)
		}},
		{"version goes backwards for one reader", vRegress, func(o *oracle) {
			r := fakeReader(o, nil)
			o.checkRead(r, 1, o.body(1, 3), nil, 0)
			o.checkRead(r, 1, o.body(1, 2), nil, 0)
		}},
		{"not-found for a page that exists", vNotFound, func(o *oracle) {
			err := &core.RemoteError{Status: msg.StatusNotFound, Text: "no page"}
			o.checkRead(fakeReader(o, nil), 0, nil, err, 0)
		}},
		{"replica behind after quiesce", vConverge, func(o *oracle) {
			lagging := fakeReader(o, func(p int) ([]byte, error) { return o.body(p, o.acked(p)-1), nil })
			o.converged([]*client{lagging}, 20*time.Millisecond)
		}},
		{"acknowledged write missing after reopen", vLost, func(o *oracle) {
			o.survived(fakeReader(o, func(p int) ([]byte, error) { return o.body(p, 2), nil }))
		}},
		{"acknowledged page gone after reopen", vLost, func(o *oracle) {
			o.survived(fakeReader(o, func(p int) ([]byte, error) {
				return nil, &core.RemoteError{Status: msg.StatusNotFound}
			}))
		}},
		{"call errored", vOpFailure, func(o *oracle) {
			o.checkRead(fakeReader(o, nil), 0, nil, core.ErrTimeout, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newTestOracle()
			tc.feed(o)
			n, first := o.violations()
			if n == 0 || o.count(tc.want) != n {
				t.Fatalf("want only %q violations, got %d: %v", tc.want, n, first)
			}
		})
	}
}

// A run with any violation reports correct=false and exits non-zero.
func TestReportFailsOnViolation(t *testing.T) {
	sp, _ := lookupSpec("forum-write")
	r := &runner{sp: sp, out: map[string]float64{}, attempted: 10}
	if code := r.report(false); code != 0 {
		t.Fatalf("clean run exit code %d", code)
	}
	r.failed = 1
	if code := r.report(false); code == 0 {
		t.Fatal("run with a violation exited 0")
	}
}

func TestContentRoundTrip(t *testing.T) {
	b := appendContent(nil, 3, "thread-01/post-2", 42, 1024)
	if len(b) != 1024 {
		t.Fatalf("len %d", len(b))
	}
	name, v, ok := parseHeader(b)
	if !ok || string(name) != "thread-01/post-2" || v != 42 {
		t.Fatalf("header = %q %d %v", name, v, ok)
	}
	if string(appendContent(nil, 4, "thread-01/post-2", 42, 1024)) == string(b) {
		t.Fatal("content does not depend on the seed")
	}
}
