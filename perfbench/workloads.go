package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coherence"
	"repro/internal/semantics"
	"repro/internal/semantics/kvstore"
	"repro/internal/semantics/webdoc"
	"repro/internal/transport"
	"repro/webobj"
)

const object webobj.ObjectID = "bench"

// spec is one named workload: the deployment it builds and the traffic the
// two generator goroutines offer it.
type spec struct {
	name  string
	rate  float64       // offered ops/s, both generator goroutines together
	limit time.Duration // p99 limit that max_rate_ops must meet
	model coherence.Model
	sem   func() semantics.Object // fresh semantics object, for the replay
	build func(e *env) (*deployment, error)
}

var specs = []spec{
	{
		name: "conference-read", rate: 1500, limit: 20 * time.Millisecond,
		model: coherence.PRAM, sem: func() semantics.Object { return webdoc.New() },
		build: buildConference,
	},
	{
		name: "forum-write", rate: 1500, limit: 20 * time.Millisecond,
		model: coherence.Causal, sem: func() semantics.Object { return webdoc.New() },
		build: buildForum,
	},
	{
		name: "durable-ingest", rate: 1000, limit: 20 * time.Millisecond,
		model: coherence.Sequential, sem: func() semantics.Object { return kvstore.New() },
		build: buildDurable,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// env is what a build needs from the run: the seed, the tracer (nil for an
// untraced run) and a scratch directory inside the checkout.
type env struct {
	seed    int64
	tr      *tracer
	workdir string
}

// client is one bound handle as the generator and the oracle see it.
type client struct {
	id      webobj.ClientID
	store   string   // name of the store it is bound to
	seen    []uint64 // per page: the newest version this reader has seen
	scratch []byte   // buffer for regenerating expected content
	writes  uint64   // writes acknowledged, i.e. the client's write sequence
	get     func(page string) ([]byte, error)
	put     func(page string, body []byte) error
	close   func()
	ep      *tracedEndpoint // the handle's endpoint when traced
}

// replica is one store of the deployment and its depth below the root.
type replica struct {
	st    *webobj.Store
	depth int
}

// deployment is a built, warmed-up system plus the generator state that
// drives it.
type deployment struct {
	sys      *webobj.System
	fabric   transport.StatsSource
	wireKey  string // the fabric counter holding wire bytes
	stores   []replica
	orc      *oracle
	workers  [2]*worker
	checkers []*client // one reader per store, for readiness and quiesce
	clients  []*client
	closers  []func()
	done     atomic.Int64 // ops completed by the generator so far
	// reopen restarts the durable store from its data directory and
	// returns a reader bound to it (durable-ingest only).
	reopen  func() (*client, *webobj.System, *webobj.Store, error)
	dataDir string
}

// close tears the deployment down, waits for it to stop and removes its
// data directory.
func (d *deployment) close() {
	d.shutdown()
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// shutdown closes every handle and the system, keeping the data directory.
func (d *deployment) shutdown() {
	for _, c := range d.clients {
		c.close()
	}
	d.clients = nil
	if d.sys != nil {
		_ = d.sys.Close()
		d.sys = nil
	}
	for _, f := range d.closers {
		f()
	}
	d.closers = nil
}

// newSystem builds a system over fab, wrapping the fabric and the resolver
// when the run is traced.
func (e *env) newSystem(d *deployment, fab webobj.Fabric, opts ...webobj.SystemOption) {
	src, _ := fab.(transport.StatsSource)
	d.fabric = src
	if e.tr != nil {
		fab = e.tr.wrapFabric(fab)
		res, release := e.tr.wrapResolver()
		d.closers = append(d.closers, release)
		opts = append(opts, webobj.WithResolver(res))
	}
	d.sys = webobj.NewSystem(append(opts, webobj.WithFabric(fab))...)
}

// open binds a handle of the object's semantics at st.
func (e *env) open(d *deployment, st *webobj.Store, kv bool) (*client, error) {
	c := &client{store: st.Name(), seen: make([]uint64, len(d.orc.names))}
	if kv {
		m, err := d.sys.OpenMap(object, webobj.At(st))
		if err != nil {
			return nil, err
		}
		c.id, c.close = m.Client(), m.Close
		c.get = m.Get
		c.put = m.Put
	} else {
		doc, err := d.sys.OpenDocument(object, webobj.At(st))
		if err != nil {
			return nil, err
		}
		c.id, c.close = doc.Client(), doc.Close
		c.get = func(page string) ([]byte, error) {
			pg, err := doc.Get(page)
			if err != nil {
				return nil, err
			}
			return pg.Content, nil
		}
		c.put = func(page string, body []byte) error { return doc.Put(page, body, "text/html") }
	}
	if e.tr != nil {
		c.ep = e.tr.lastClient()
	}
	d.clients = append(d.clients, c)
	return c, nil
}

// tree builds the paper's hierarchy over fab: permanent -> mirror -> cache
// A, and permanent -> cache B, with the object published at the permanent
// store and replicated at the other three.
func (e *env) tree(d *deployment, fab webobj.Fabric, wireKey string, strat webobj.Strategy) (cacheA, cacheB *webobj.Store, err error) {
	e.newSystem(d, fab)
	d.wireKey = wireKey
	perm, err := d.sys.NewServer("perm")
	if err != nil {
		return nil, nil, err
	}
	mirror, err := d.sys.NewMirror("mirror", perm)
	if err != nil {
		return nil, nil, err
	}
	if cacheA, err = d.sys.NewCache("cacheA", mirror); err != nil {
		return nil, nil, err
	}
	if cacheB, err = d.sys.NewCache("cacheB", perm); err != nil {
		return nil, nil, err
	}
	if err := d.sys.Publish(perm, object, webobj.WebDoc(), strat); err != nil {
		return nil, nil, err
	}
	for _, st := range []*webobj.Store{mirror, cacheA, cacheB} {
		if err := d.sys.Replicate(st, object); err != nil {
			return nil, nil, err
		}
	}
	d.stores = []replica{{perm, 0}, {mirror, 1}, {cacheA, 2}, {cacheB, 1}}
	return cacheA, cacheB, nil
}

// buildConference is Table 2's conference page: one owner writing 64 pages
// of 4 KiB at cache A, over real TCP on loopback.
func buildConference(e *env) (*deployment, error) {
	const pages, size = 64, 4096
	names := make([]string, pages)
	for i := range names {
		names[i] = fmt.Sprintf("page-%02d.html", i)
	}
	d := &deployment{orc: newOracle(e.seed, names, size)}
	cacheA, cacheB, err := e.tree(d, webobj.NewTCPFabric("127.0.0.1"), "bytes_sent",
		webobj.ConferenceStrategy(500*time.Millisecond))
	if err != nil {
		return d, err
	}
	owner, err := e.open(d, cacheA, false)
	if err != nil {
		return d, err
	}
	reader, err := e.open(d, cacheB, false)
	if err != nil {
		return d, err
	}
	all := seq(pages)
	owners := make([]*client, pages)
	for i := range owners {
		owners[i] = owner
	}
	// 3 % writes overall, all by the owner: 6 % of goroutine A's ops.
	d.workers[0] = &worker{readers: []*client{owner}, writable: all, owner: owners, readPages: all, writeShare: 0.06}
	d.workers[1] = &worker{readers: []*client{reader}, readPages: all}
	return d, e.warm(d, false)
}

// buildForum is the newsgroup of §3.2.1: 16 writer identities, 8 at each
// cache, each posting to its own 8 pages of 1 KiB, over memnet.
func buildForum(e *env) (*deployment, error) {
	const idents, perIdent, size = 16, 8, 1024
	names := make([]string, 0, idents*perIdent)
	for i := 0; i < idents; i++ {
		for j := 0; j < perIdent; j++ {
			names = append(names, fmt.Sprintf("thread-%02d/post-%d", i, j))
		}
	}
	d := &deployment{orc: newOracle(e.seed, names, size)}
	cacheA, cacheB, err := e.tree(d, webobj.NewMemFabric(), "bytes_delivered", webobj.ForumStrategy())
	if err != nil {
		return d, err
	}
	owners := make([]*client, len(names))
	for g, st := range []*webobj.Store{cacheA, cacheB} {
		w := &worker{owner: owners, readPages: seq(len(names)), writeShare: 0.5}
		for i := g * idents / 2; i < (g+1)*idents/2; i++ {
			c, err := e.open(d, st, false)
			if err != nil {
				return d, err
			}
			w.readers = append(w.readers, c)
			for j := 0; j < perIdent; j++ {
				p := i*perIdent + j
				owners[p] = c
				w.writable = append(w.writable, p)
			}
		}
		d.workers[g] = w
	}
	return d, e.warm(d, false)
}

// buildDurable is one durable permanent store holding a kv object under the
// sequential model, fsync before every acknowledgement, over memnet.
func buildDurable(e *env) (*deployment, error) {
	const keys, size = 4096, 256
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%04d", i)
	}
	d := &deployment{orc: newOracle(e.seed, names, size), wireKey: "bytes_delivered"}
	dir, err := os.MkdirTemp(e.workdir, "durable-")
	if err != nil {
		return d, err
	}
	d.dataDir = dir
	dur := webobj.Durability{Fsync: webobj.FsyncInterval}
	e.newSystem(d, webobj.NewMemFabric(), webobj.WithDataDir(dir), webobj.WithDurability(dur))
	const storeID = 1
	perm, err := d.sys.NewServer("perm", webobj.WithStoreID(storeID))
	if err != nil {
		return d, err
	}
	if err := d.sys.Publish(perm, object, webobj.KV(), webobj.WhiteboardStrategy()); err != nil {
		return d, err
	}
	d.stores = []replica{{perm, 0}}
	owners := make([]*client, keys)
	for g := 0; g < 2; g++ {
		c, err := e.open(d, perm, true)
		if err != nil {
			return d, err
		}
		own := make([]int, 0, keys/2)
		for p := g * keys / 2; p < (g+1)*keys/2; p++ {
			owners[p] = c
			own = append(own, p)
		}
		d.workers[g] = &worker{readers: []*client{c}, writable: own, owner: owners, readPages: own, writeShare: 0.9}
	}
	d.reopen = func() (*client, *webobj.System, *webobj.Store, error) {
		sys := webobj.NewSystem(webobj.WithDataDir(dir), webobj.WithDurability(dur))
		st, err := sys.NewServer("perm", webobj.WithStoreID(storeID))
		if err == nil {
			err = sys.Publish(st, object, webobj.KV(), webobj.WhiteboardStrategy())
		}
		if err != nil {
			_ = sys.Close()
			return nil, nil, nil, err
		}
		m, err := sys.OpenMap(object, webobj.At(st))
		if err != nil {
			_ = sys.Close()
			return nil, nil, nil, err
		}
		c := &client{id: m.Client(), store: "perm (reopened)", seen: make([]uint64, keys), get: m.Get, close: m.Close}
		return c, sys, st, nil
	}
	return d, e.warm(d, true)
}

// warm writes version 1 of every page, waits until every replica has
// applied every write, then reads every page at every store through a
// fresh checker handle, so the timed phase starts with all caches full.
func (e *env) warm(d *deployment, kv bool) error {
	if err := d.preload(); err != nil {
		return err
	}
	for _, r := range d.stores {
		c, err := e.open(d, r.st, kv)
		if err != nil {
			return err
		}
		d.checkers = append(d.checkers, c)
	}
	if err := d.ready(10 * time.Second); err != nil {
		return err
	}
	for _, c := range d.checkers {
		for p := range d.orc.names {
			body, err := c.get(d.orc.names[p])
			if !d.orc.checkRead(c, p, body, err, d.orc.acked(p)) {
				return fmt.Errorf("warm-up read of %s at %s failed", d.orc.names[p], c.store)
			}
		}
	}
	return nil
}

// preload writes version 1 of every page through its owner, a few writes
// in flight per owner so durable group commit can batch them.
func (d *deployment) preload() error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for _, w := range d.workers {
		byOwner := map[*client][]int{}
		for _, p := range w.writable {
			byOwner[w.owner[p]] = append(byOwner[w.owner[p]], p)
		}
		for c, pages := range byOwner {
			const inflight = 8
			for k := 0; k < inflight; k++ {
				wg.Add(1)
				go func(c *client, k int) {
					defer wg.Done()
					for i := k; i < len(pages); i += inflight {
						p := pages[i]
						v := d.orc.issue(p)
						if err := c.put(d.orc.names[p], d.orc.body(p, v)); err != nil {
							mu.Lock()
							if first == nil {
								first = fmt.Errorf("preload %s: %w", d.orc.names[p], err)
							}
							mu.Unlock()
							return
						}
						d.orc.ack(p, v)
					}
				}(c, k)
			}
			c.writes += uint64(len(pages))
		}
	}
	wg.Wait()
	return first
}

// ready waits until every store's applied vector covers every write the
// owners have had acknowledged.
func (d *deployment) ready(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, r := range d.stores {
		for {
			vec, err := r.st.Applied(object)
			if err != nil {
				return err
			}
			behind := false
			for _, w := range d.workers {
				for _, c := range w.readers {
					if c.writes > 0 && vec[c.id] < c.writes {
						behind = true
					}
				}
			}
			if !behind {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("store %s did not apply every write within %v", r.st.Name(), timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// worker is the state of one generator goroutine: the handles it calls
// through, the pages it writes (each page has exactly one writing
// goroutine), and its seeded op stream.
type worker struct {
	rng        *rand.Rand
	readers    []*client
	writable   []int
	owner      []*client // page -> the client that writes it
	readPages  []int
	writeShare float64
}

// next draws the worker's next op.
func (w *worker) next() (write bool, c *client, p int) {
	if len(w.writable) > 0 && w.rng.Float64() < w.writeShare {
		p = w.writable[w.rng.Intn(len(w.writable))]
		return true, w.owner[p], p
	}
	return false, w.readers[w.rng.Intn(len(w.readers))], w.readPages[w.rng.Intn(len(w.readPages))]
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
