package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/webobj"
)

// The tracer measures the layers from outside the program. It wraps the
// fabric, so every endpoint's Send, Multicast and receive dequeue is timed;
// it wraps the resolver; and the generator marks each handle call's entry
// and return. Spans are kept in memory and written out when the run ends.

// Frame categories, for transport.frames_per_op.*.
const (
	catRequest       = iota // client calls and forwarded writes, with their replies
	catDissemination        // updates, invalidations and notifications down the tree
	catRepair               // subscribe, demand, state transfer, digest, gossip
	catCount
)

func category(k msg.Kind) int {
	switch k {
	case msg.KindBindRequest, msg.KindBindReply, msg.KindReadRequest, msg.KindReadReply,
		msg.KindWriteRequest, msg.KindWriteReply:
		return catRequest
	case msg.KindUpdate, msg.KindUpdateBatch, msg.KindUpdateAck, msg.KindInvalidate, msg.KindNotify:
		return catDissemination
	}
	return catRepair
}

// Capture caps for the replays.
const (
	maxFrames  = 2048
	maxInvs    = 4096
	maxUpdates = 4096
	maxSpans   = 1 << 20
)

// span is one timed interval at a layer boundary. Spans of one request
// share an ID: "w<client>.<seq>" for a write, "r<addr>#<netseq>" for a
// request/reply pair.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func writeID(w ids.WiD) string { return "w" + itoa(uint64(w.Client)) + "." + itoa(w.Seq) }

func reqID(addr string, seq uint64) string { return "r" + addr + "#" + itoa(seq) }

// frameKey identifies a frame in flight from its sender to one receiver.
type frameKey struct {
	from, to string
	kind     msg.Kind
	netSeq   uint64
	write    ids.WiD
}

// reqKey identifies a client request. A store forwarding a write keeps
// the client's address as the frame's From, and the permanent store replies
// to the client directly, so the key holds across the hops.
type reqKey struct {
	client string
	netSeq uint64
}

// tracer is shared by every wrapped endpoint of one deployment.
type tracer struct {
	on atomic.Bool // spans and frames are recorded only in the traced phase
	t0 time.Time

	resolveCalls atomic.Int64

	mu         sync.Mutex
	eps        map[string]*tracedEndpoint // by address
	last       *tracedEndpoint            // most recently created client endpoint
	spans      []span
	resolveNs  []time.Duration
	inflight   map[frameKey][]int64
	svcStart   map[reqKey]int64
	boundAt    map[ids.WiD]int64 // write dequeued at the store its client is bound to
	permAt     map[ids.WiD]int64 // write dequeued at the permanent store
	frames     [catCount]int
	frameBytes []time.Duration // sizes, kept as durations so quantile applies
	vecWidths  []time.Duration
	replyBytes []time.Duration
	resent     int
	capFrames  [][]byte
	capInvs    []msg.Invocation
	capUpdates []coherence.Update
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		eps:      map[string]*tracedEndpoint{},
		inflight: map[frameKey][]int64{},
		svcStart: map[reqKey]int64{},
		boundAt:  map[ids.WiD]int64{},
		permAt:   map[ids.WiD]int64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) addSpan(s span) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// lastClient returns the endpoint of the handle opened most recently.
func (t *tracer) lastClient() *tracedEndpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// setDepths records each store's depth below the permanent store.
func (t *tracer) setDepths(stores []replica) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range stores {
		if e := t.eps[r.st.Addr()]; e != nil {
			e.depth = r.depth
		}
	}
}

// --- fabric ---------------------------------------------------------------

type tracedFabric struct {
	inner webobj.Fabric
	tr    *tracer
}

func (t *tracer) wrapFabric(f webobj.Fabric) webobj.Fabric { return &tracedFabric{inner: f, tr: t} }

func (f *tracedFabric) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := f.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	e := &tracedEndpoint{
		Endpoint: ep, tr: f.tr, addr: ep.Addr(), store: strings.HasPrefix(name, "store/"),
		out: make(chan *msg.Message), done: make(chan struct{}),
	}
	f.tr.mu.Lock()
	f.tr.eps[e.addr] = e
	if !e.store {
		f.tr.last = e
	}
	f.tr.mu.Unlock()
	e.wg.Add(1)
	go e.forward()
	return e, nil
}

func (f *tracedFabric) Close() error { return f.inner.Close() }

// tracedEndpoint times its endpoint's traffic. For a client endpoint it
// also holds the state of the one call in flight on it (each handle is
// driven by one generator goroutine, one call at a time).
type tracedEndpoint struct {
	transport.Endpoint
	tr    *tracer
	addr  string
	store bool
	depth int // set before tracing starts

	out  chan *msg.Message
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	callStart atomic.Int64
	firstSend atomic.Int64
	reqSeq    atomic.Uint64 // NetSeq of the call's first request
	replyDeq  atomic.Int64
}

func (e *tracedEndpoint) Send(to string, m *msg.Message) error {
	if e.tr.on.Load() {
		e.tr.sent(e, []string{to}, m)
	}
	return e.Endpoint.Send(to, m)
}

func (e *tracedEndpoint) Multicast(tos []string, m *msg.Message) error {
	if e.tr.on.Load() {
		e.tr.sent(e, tos, m)
	}
	return e.Endpoint.Multicast(tos, m)
}

func (e *tracedEndpoint) Recv() <-chan *msg.Message { return e.out }

func (e *tracedEndpoint) Close() error {
	e.once.Do(func() { close(e.done) })
	err := e.Endpoint.Close()
	e.wg.Wait()
	return err
}

// forward hands each delivered frame to the endpoint's consumer and records
// the moment the consumer took it.
func (e *tracedEndpoint) forward() {
	defer e.wg.Done()
	defer close(e.out)
	in := e.Endpoint.Recv()
	for {
		var m *msg.Message
		var ok bool
		select {
		case m, ok = <-in:
			if !ok {
				return
			}
		case <-e.done:
			return
		}
		var info recvInfo
		on := e.tr.on.Load()
		if on {
			info = e.tr.inspect(e, m)
		}
		select {
		case e.out <- m:
		case <-e.done:
			return
		}
		if on {
			e.tr.dequeued(e, &info, e.tr.now())
		}
	}
}

// beginCall marks a handle call's entry. A nil endpoint (untraced run)
// ignores it.
func (e *tracedEndpoint) beginCall() {
	if e == nil || !e.tr.on.Load() {
		return
	}
	e.firstSend.Store(0)
	e.replyDeq.Store(0)
	e.callStart.Store(e.tr.now())
}

// endCall marks the call's return and records its spans.
func (e *tracedEndpoint) endCall(write bool) {
	if e == nil {
		return
	}
	start := e.callStart.Swap(0)
	if start == 0 || !e.tr.on.Load() {
		return
	}
	end := e.tr.now()
	send, deq := e.firstSend.Load(), e.replyDeq.Load()
	name := "call.read"
	if write {
		name = "call.write"
	}
	id := reqID(e.addr, e.reqSeq.Load())
	t := e.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addSpan(span{Name: name, ID: id, Start: start, End: end})
	if send >= start {
		t.addSpan(span{Name: "core.send", ID: id, Parent: name, Start: start, End: send})
	}
	if deq >= start && deq <= end {
		t.addSpan(span{Name: "core.return", ID: id, Parent: name, Start: deq, End: end})
	}
}

// sent records a frame leaving endpoint e for every address in tos.
func (t *tracer) sent(e *tracedEndpoint, tos []string, m *msg.Message) {
	ts := t.now()
	key := frameKey{from: m.From, kind: m.Kind, netSeq: m.NetSeq, write: firstWrite(m)}
	if key.from == "" {
		key.from = e.addr
	}
	if !e.store && (m.Kind == msg.KindReadRequest || m.Kind == msg.KindWriteRequest) && e.callStart.Load() != 0 {
		if e.firstSend.CompareAndSwap(0, ts) {
			e.reqSeq.Store(m.NetSeq)
		} else {
			t.mu.Lock()
			t.resent++
			t.mu.Unlock()
		}
	}
	width := max(m.VVec.Len(), m.Deps.Len())
	for i := range m.Batch {
		width = max(width, m.Batch[i].Deps.Len())
	}
	size := msg.WireSize(m)
	var frame []byte
	var inv msg.Invocation
	t.mu.Lock()
	capFrame := len(t.capFrames) < maxFrames
	capInv := !e.store && (m.Kind == msg.KindReadRequest || m.Kind == msg.KindWriteRequest) && len(t.capInvs) < maxInvs
	t.mu.Unlock()
	if capFrame {
		frame = msg.Encode(m)
	}
	if capInv {
		inv = msg.Invocation{Method: m.Inv.Method, Page: m.Inv.Page, Args: append([]byte(nil), m.Inv.Args...)}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.frames[category(m.Kind)] += len(tos)
	t.frameBytes = append(t.frameBytes, time.Duration(size))
	if width > 0 {
		t.vecWidths = append(t.vecWidths, time.Duration(width))
	}
	if m.Kind == msg.KindReadReply {
		t.replyBytes = append(t.replyBytes, time.Duration(len(m.Payload)))
	}
	if frame != nil && len(t.capFrames) < maxFrames {
		t.capFrames = append(t.capFrames, frame)
	}
	if capInv && len(t.capInvs) < maxInvs {
		t.capInvs = append(t.capInvs, inv)
	}
	for _, to := range tos {
		key.to = to
		t.inflight[key] = append(t.inflight[key], ts)
		if e.store && (m.Kind == msg.KindReadReply || m.Kind == msg.KindWriteReply) {
			rk := reqKey{client: to, netSeq: m.NetSeq}
			if start, ok := t.svcStart[rk]; ok {
				delete(t.svcStart, rk)
				name := "store.read"
				if m.Kind == msg.KindWriteReply {
					name = "store.write"
				}
				t.addSpan(span{Name: name, ID: reqID(to, m.NetSeq), Start: start, End: ts})
			}
		}
	}
}

func firstWrite(m *msg.Message) ids.WiD {
	if m.Kind == msg.KindUpdateBatch && len(m.Batch) > 0 {
		return m.Batch[0].Write
	}
	return m.Write
}

// recvInfo is what the tracer needs from a delivered frame, copied before
// the frame is handed to its consumer.
type recvInfo struct {
	key    frameKey
	writes []ids.WiD // writes an update frame carries
	update *coherence.Update
}

func (t *tracer) inspect(e *tracedEndpoint, m *msg.Message) recvInfo {
	info := recvInfo{key: frameKey{from: m.From, to: e.addr, kind: m.Kind, netSeq: m.NetSeq, write: firstWrite(m)}}
	switch m.Kind {
	case msg.KindUpdate:
		info.writes = []ids.WiD{m.Write}
	case msg.KindUpdateBatch:
		info.writes = make([]ids.WiD, len(m.Batch))
		for i := range m.Batch {
			info.writes[i] = m.Batch[i].Write
		}
	case msg.KindWriteRequest:
		if e.store && e.depth == 0 {
			info.update = &coherence.Update{
				Write: m.Write, Deps: m.Deps.VC(), WallNanos: m.WallNanos,
				Inv: msg.Invocation{Method: m.Inv.Method, Page: strings.Clone(m.Inv.Page), Args: append([]byte(nil), m.Inv.Args...)},
			}
		}
	}
	return info
}

// dequeued records that endpoint e's consumer took a frame at td.
func (t *tracer) dequeued(e *tracedEndpoint, info *recvInfo, td int64) {
	k := info.key
	if !e.store && (k.kind == msg.KindReadReply || k.kind == msg.KindWriteReply) {
		e.replyDeq.Store(td)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.inflight[k]; len(q) > 0 {
		t.addSpan(span{Name: "transport.deliver", ID: k.kind.String(), Start: q[0], End: td})
		if len(q) == 1 {
			delete(t.inflight, k)
		} else {
			t.inflight[k] = q[1:]
		}
	}
	if !e.store {
		return
	}
	switch k.kind {
	case msg.KindReadRequest, msg.KindWriteRequest:
		// The first store to take a client's request is the one the client
		// is bound to; later ones received it forwarded.
		rk := reqKey{client: k.from, netSeq: k.netSeq}
		if _, seen := t.svcStart[rk]; !seen {
			t.svcStart[rk] = td
		}
		if k.kind != msg.KindWriteRequest {
			return
		}
		w := k.write
		bound, forwarded := t.boundAt[w]
		if !forwarded {
			t.boundAt[w] = td
		}
		if e.depth != 0 {
			return
		}
		if _, seen := t.permAt[w]; !seen {
			t.permAt[w] = td
			if forwarded {
				t.addSpan(span{Name: "replication.forward", ID: writeID(w), Start: bound, End: td})
			}
			if info.update != nil && len(t.capUpdates) < maxUpdates {
				t.capUpdates = append(t.capUpdates, *info.update)
			}
		}
	case msg.KindUpdate, msg.KindUpdateBatch:
		name := "replication.disseminate.d" + itoa(uint64(e.depth))
		for _, w := range info.writes {
			if start, ok := t.permAt[w]; ok {
				t.addSpan(span{Name: name, ID: writeID(w), Start: start, End: td})
			}
		}
	}
}

// --- resolver ---------------------------------------------------------------

// tracedResolver times every call into the naming layer.
type tracedResolver struct {
	webobj.Resolver
	tr *tracer
}

// wrapResolver wraps the default in-process resolver, borrowed from a bare
// system that must outlive the deployment; release closes that system.
func (t *tracer) wrapResolver() (webobj.Resolver, func()) {
	donor := webobj.NewSystem()
	return &tracedResolver{Resolver: donor.Resolver(), tr: t}, func() { _ = donor.Close() }
}

func (r *tracedResolver) timed(start time.Time) {
	d := time.Since(start)
	r.tr.resolveCalls.Add(1)
	r.tr.mu.Lock()
	r.tr.resolveNs = append(r.tr.resolveNs, d)
	r.tr.mu.Unlock()
}

func (r *tracedResolver) Register(o webobj.ObjectID, e webobj.NameEntry, m webobj.NameMeta) error {
	defer r.timed(time.Now())
	return r.Resolver.Register(o, e, m)
}

func (r *tracedResolver) Deregister(o webobj.ObjectID, addr string) error {
	defer r.timed(time.Now())
	return r.Resolver.Deregister(o, addr)
}

func (r *tracedResolver) Resolve(o webobj.ObjectID) (webobj.NameRecord, error) {
	defer r.timed(time.Now())
	return r.Resolver.Resolve(o)
}

func (r *tracedResolver) Invalidate(o webobj.ObjectID) {
	defer r.timed(time.Now())
	r.Resolver.Invalidate(o)
}

func (r *tracedResolver) Pick(o webobj.ObjectID) (webobj.NameEntry, bool) {
	defer r.timed(time.Now())
	return r.Resolver.Pick(o)
}

func (r *tracedResolver) RenewContact(addr string) (uint64, error) {
	defer r.timed(time.Now())
	return r.Resolver.RenewContact(addr)
}

func (r *tracedResolver) NextClient() (webobj.ClientID, error) {
	defer r.timed(time.Now())
	return r.Resolver.NextClient()
}

func (r *tracedResolver) NextStore() (webobj.StoreID, error) {
	defer r.timed(time.Now())
	return r.Resolver.NextStore()
}

func (r *tracedResolver) ReserveClient(id webobj.ClientID) error {
	defer r.timed(time.Now())
	return r.Resolver.ReserveClient(id)
}

func (r *tracedResolver) ReserveStore(id webobj.StoreID) error {
	defer r.timed(time.Now())
	return r.Resolver.ReserveStore(id)
}

func (r *tracedResolver) ClientSeqFloor(id webobj.ClientID) uint64 {
	defer r.timed(time.Now())
	return r.Resolver.ClientSeqFloor(id)
}

func (r *tracedResolver) ReportClientSeq(id webobj.ClientID, seq uint64) {
	defer r.timed(time.Now())
	r.Resolver.ReportClientSeq(id, seq)
}

// --- results ----------------------------------------------------------------

// spanDurations returns the durations of the spans whose name has prefix.
func (t *tracer) spanDurations(prefix string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s.dur())
		}
	}
	return out
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func itoa(v uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}
