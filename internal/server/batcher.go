package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"aladdin/internal/workload"
)

// CoalesceConfig tunes a tenant's request batcher.  The batcher turns
// the flood of small POST /place calls a production cluster substrate
// emits into the batch-sized Place calls the flow solver is fast at:
// requests enqueue, the flusher merges everything pending into one
// solver batch when either MaxBatch containers have accumulated or
// Window has elapsed since the first queued request, and each waiting
// request gets back exactly its own containers' outcomes.
type CoalesceConfig struct {
	// Window is the maximum time a queued request waits before a
	// partial batch flushes.  Zero disables coalescing entirely.
	Window time.Duration
	// MaxBatch is the pending-container count that triggers an
	// immediate flush without waiting out the window; 0 means the
	// default of 128.
	MaxBatch int
	// MaxQueue caps the number of queued requests; a request arriving
	// with the queue at capacity is rejected with 429 + Retry-After
	// instead of admitted (admission control keeps the queue, and
	// therefore worst-case latency, bounded).  0 means the default of
	// 256.
	MaxQueue int
}

// enabled reports whether the configuration turns coalescing on.
func (c CoalesceConfig) enabled() bool { return c.Window > 0 }

// withDefaults fills the zero knobs.
func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	return c
}

// retryAfterSeconds is the Retry-After hint on 429 responses: one
// flush window rounded up to whole seconds (the queue drains at least
// once per window), never less than a second.
func (c CoalesceConfig) retryAfterSeconds() int {
	s := int((c.Window + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// placeReply is the outcome fanned back to one queued request.
type placeReply struct {
	status int
	body   placeResponse
	// plain, when non-empty, is rendered via http.Error instead of a
	// JSON body (validation failures mirror the direct path's shape).
	plain string
}

// placeCall is one queued POST /place request: the container IDs it
// submitted and the channel its handler waits on.  done is buffered
// so a handler that gave up (client disconnect) never blocks the
// flusher.
type placeCall struct {
	ids  []string
	done chan placeReply
}

// Admission-control sentinels for batcher.enqueue.
var (
	errQueueFull = errors.New("placement queue at capacity")
	errDraining  = errors.New("server draining")
)

// batcher coalesces one tenant's place requests.  Lifecycle: created
// with the tenant, one flusher goroutine; close() stops admissions,
// flushes everything still queued so every in-flight request gets a
// response, and waits for the flusher to exit.
type batcher struct {
	t   *Tenant
	cfg CoalesceConfig

	// mu guards the queue only; it is never held across a solver
	// call.  The flusher swaps the queue out under mu and places the
	// merged batch under the tenant session lock afterwards, so the
	// declared order (batcher mu before tenant mu, never inverted)
	// holds trivially — the two are never held together.
	//
	//aladdin:lock-level 42 coalescing queue lock; taken after the registry lock, before the tenant session lock, never held across Place
	mu      sync.Mutex
	pending []*placeCall
	npend   int // containers queued across pending
	closed  bool

	kick chan struct{} // buffered 1: work arrived
	full chan struct{} // buffered 1: MaxBatch threshold crossed
	quit chan struct{} // closed by close()
	done chan struct{} // closed when the flusher exits
}

// newBatcher starts a tenant's flusher.
func newBatcher(t *Tenant, cfg CoalesceConfig) *batcher {
	b := &batcher{
		t:    t,
		cfg:  cfg.withDefaults(),
		kick: make(chan struct{}, 1),
		full: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// signal performs a non-blocking send on a buffered-1 channel:
// repeated signals coalesce, which is exactly the edge-trigger the
// flusher needs.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// enqueue admits one request into the queue, returning errQueueFull
// (→ 429 + Retry-After) when the queue is at capacity and errDraining
// (→ 503) after close.  Queue depth is measured in requests, so
// "capacity" is exactly MaxQueue concurrently-waiting clients.
func (b *batcher) enqueue(c *placeCall) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errDraining
	}
	if len(b.pending) >= b.cfg.MaxQueue {
		b.mu.Unlock()
		b.t.met.rejected.Inc()
		return errQueueFull
	}
	b.pending = append(b.pending, c)
	b.npend += len(c.ids)
	depth, fullNow := len(b.pending), b.npend >= b.cfg.MaxBatch
	b.mu.Unlock()

	b.t.met.queueDepth.Set(int64(depth))
	signal(b.kick)
	if fullNow {
		signal(b.full)
	}
	return nil
}

// queueLen reads the current queue depth in requests.
func (b *batcher) queueLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// isFull reports whether the pending containers already meet the
// flush threshold.
func (b *batcher) isFull() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.npend >= b.cfg.MaxBatch
}

// loop is the flusher: wait for work, give the batch up to Window to
// fill (cut short when MaxBatch containers accumulate), flush, and
// repeat.  On quit it flushes whatever is queued so every admitted
// request gets a response — graceful drain, not a connection reset.
func (b *batcher) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.kick:
		case <-b.quit:
			b.drain()
			return
		}
		if b.queueLen() == 0 {
			continue // stale kick: the work was taken by a previous flush
		}
		// Clear any stale fullness token from an earlier cycle, then
		// wait for the batch to fill or the window to expire.  An
		// enqueue crossing the threshold between the clear and the
		// wait re-signals, so the token can only be fresh here.  A
		// fresh timer per cycle sidesteps the Stop/drain races of a
		// reused one; this path flushes at most once per window, so
		// the allocation is noise.
		select {
		case <-b.full:
		default:
		}
		if !b.isFull() {
			timer := time.NewTimer(b.cfg.Window)
			select {
			case <-b.full:
				timer.Stop()
			case <-timer.C:
			case <-b.quit:
				timer.Stop()
				b.drain()
				return
			}
		}
		b.flushOnce()
	}
}

// drain flushes until the queue is empty.  closed is already set, so
// no new work can arrive behind the final flush.
func (b *batcher) drain() {
	for b.queueLen() > 0 {
		b.flushOnce()
	}
}

// flushOnce swaps the queue out and places it as one merged batch.
func (b *batcher) flushOnce() {
	b.mu.Lock()
	calls := b.pending
	b.pending = nil
	b.npend = 0
	b.mu.Unlock()
	b.t.met.queueDepth.Set(0)
	if len(calls) == 0 {
		return
	}
	b.t.placeCoalesced(calls)
}

// close stops admissions (subsequent enqueues return errDraining),
// flushes the queue, and waits for the flusher goroutine to exit.
// Idempotent-safe against double drain via the closed flag.
func (b *batcher) close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if already {
		<-b.done
		return
	}
	close(b.quit)
	<-b.done
}

// placeCoalesced merges queued calls into one solver batch under the
// tenant session lock and fans the per-container outcomes back to
// each caller.  Validation happens per call so one bad request (an
// unknown ID, a double submission) fails alone instead of poisoning
// the merged batch.  The merged batch is placed in workload-ordinal
// order: arrival order across concurrently-queued requests is
// nondeterministic, and the canonical order makes a coalesced flush
// byte-identical to one client submitting the same containers
// serially — the equivalence the oracle test pins.
func (t *Tenant) placeCoalesced(calls []*placeCall) {
	t.mu.Lock()
	queued := make(map[string]bool, len(calls))
	survivors := make([]*placeCall, 0, len(calls))
	merged := make([]*workload.Container, 0, len(calls))
	// done channels are buffered one reply deep, so sending under the
	// lock cannot block on a departed client.
	for _, c := range calls {
		rep, batch := t.validateCall(c, queued)
		if rep != nil {
			c.done <- *rep
			continue
		}
		survivors = append(survivors, c)
		merged = append(merged, batch...)
	}
	if len(merged) == 0 {
		t.mu.Unlock()
		// Nothing to place, but every surviving call (an empty
		// container list) still gets its answer — a dropped reply
		// parks the handler forever.
		for _, c := range survivors {
			c.done <- placeReply{status: 200}
		}
		return
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Ord < merged[j].Ord })

	res, err := t.sess.Place(merged)
	t.met.batches.Inc()
	t.met.batchSize.Observe(int64(len(merged)))

	// Copy everything the replies need before the lock drops: the
	// Result and its slices are session scratch, valid only until the
	// next Place on this session.
	var (
		undeployed map[string]bool
		migrations int
		elapsedUS  int64
		errMsg     string
	)
	if res != nil {
		undeployed = make(map[string]bool, len(res.Undeployed))
		for _, id := range res.Undeployed {
			undeployed[id] = true
		}
		migrations = res.Migrations
		elapsedUS = res.Elapsed.Microseconds()
	}
	if err != nil {
		errMsg = err.Error()
	}
	t.mu.Unlock()

	for _, c := range survivors {
		rep := placeReply{status: 200}
		if err != nil && res == nil {
			// Validation failure inside the solver despite the per-call
			// pre-checks: internal, every caller learns it.
			c.done <- placeReply{status: 409, plain: errMsg}
			continue
		}
		var mine placeResponse
		for _, id := range c.ids {
			if undeployed[id] {
				mine.Undeployed = append(mine.Undeployed, id)
			} else {
				mine.Placed++
			}
		}
		mine.Migrations = migrations
		mine.ElapsedUS = elapsedUS
		mine.Coalesced = len(merged)
		mine.Error = errMsg
		if errMsg != "" {
			rep.status = 409
		}
		rep.body = mine
		c.done <- rep
	}
}

// validateCall pre-checks one queued request against the live session
// under the tenant lock, mirroring Session.Place's batch validation
// per call: unknown containers, duplicates within the request,
// containers already placed, and containers already claimed by an
// earlier request in the same flush each fail that request alone.
// Returns a non-nil reply on rejection, else the resolved containers.
func (t *Tenant) validateCall(c *placeCall, queued map[string]bool) (*placeReply, []*workload.Container) {
	batch := make([]*workload.Container, 0, len(c.ids))
	mine := make(map[string]bool, len(c.ids))
	for _, id := range c.ids {
		cont := t.byID[id]
		switch {
		case cont == nil:
			return &placeReply{status: 400, plain: fmt.Sprintf("unknown container %q", id)}, nil
		case mine[id]:
			return &placeReply{status: 409, plain: fmt.Sprintf("duplicate container %q in request", id)}, nil
		case t.sess.Placed(id):
			return &placeReply{status: 409, plain: fmt.Sprintf("container %q is already placed", id)}, nil
		case queued[id]:
			return &placeReply{status: 409, plain: fmt.Sprintf("container %q already submitted by a concurrent request", id)}, nil
		}
		mine[id] = true
		batch = append(batch, cont)
	}
	for id := range mine {
		queued[id] = true
	}
	return nil, batch
}
