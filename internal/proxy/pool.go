package proxy

import (
	"sync"
	"sync/atomic"
	"time"

	"anception/internal/marshal"
	"anception/internal/sim"
)

// DefaultPoolWorkers is the per-app proxy worker count when the caller
// passes 0.
const DefaultPoolWorkers = 4

// Pool is the guest half of the asynchronous ring: N proxy worker
// shards serving submitted slots concurrently, the multi-slot
// replacement for the one-call-at-a-time Execute path. A slot goes
// straight to the shard its key maps to, so entries sharing a key (the
// layer keys by file descriptor) retain FIFO order while different
// descriptors overlap freely. A waited call (RingChannel.Call) whose
// shard has nothing queued or executing runs on the caller's goroutine
// instead of waking the shard's worker; otherwise it queues behind the
// shard's earlier slots like any submission. Credential/cwd/umask
// mirroring is untouched: every slot's handler executes in the proxy the
// Manager enrolled for its host task, the shards only schedule.
//
// Cost model: a shard charges one ProxyDispatch when a slot arrives
// after its poller has sat idle past RingPollIdle of sim time; slots
// arriving inside that window ride the live poller for free — the guest
// half of doorbell coalescing, mirroring the armed-doorbell window the
// host half uses (one WorldSwitch per doorbell instead of per call).
// Inline and worker runs charge alike, from the shard's own activity
// window. Drained calls pay only their guest trap entry, via
// Manager.ExecuteDrained.
type Pool struct {
	ring   *marshal.RingChannel
	clock  *sim.Clock
	model  sim.LatencyModel
	shards []*poolShard
	wg     sync.WaitGroup

	// wakeups counts cold starts after a RingPollIdle gap (ProxyDispatch
	// charges); drained counts slots served by a still-hot poller.
	wakeups atomic.Int64
	drained atomic.Int64
}

// poolShard is one worker's share of the keys.
type poolShard struct {
	// mu orders arrivals: it guards pending and every send on q, so a
	// slot that finds the shard idle and runs inline is ahead of every
	// slot queued after it.
	mu sync.Mutex
	// pending counts slots queued on q or executing.
	pending int
	q       chan *marshal.Pending
	// exec is held while a slot executes, so at most one runs per shard
	// (a handler must therefore never wait on a slot of its own shard,
	// just as when one worker served each shard). It also guards
	// lastActive, the sim time of the shard's last serve.
	exec       sync.Mutex
	lastActive time.Duration
}

// PoolStats snapshots the pool's scheduling counters.
type PoolStats struct {
	Workers int
	// Wakeups is how many times a shard restarted a cold poller (one
	// ProxyDispatch each); Drained is how many slots rode a poller still
	// inside its RingPollIdle window. Wakeups+Drained equals the slots
	// the pool served, inline or on a worker.
	Wakeups int
	Drained int
}

// NewPool builds a worker pool and installs it as the ring's executor.
// workers <= 0 uses DefaultPoolWorkers.
func NewPool(ring *marshal.RingChannel, workers int, clock *sim.Clock, model sim.LatencyModel) *Pool {
	if workers <= 0 {
		workers = DefaultPoolWorkers
	}
	p := &Pool{
		ring:   ring,
		clock:  clock,
		model:  model,
		shards: make([]*poolShard, workers),
	}
	for i := range p.shards {
		p.shards[i] = &poolShard{
			// Each shard can hold the whole ring, so a send never blocks.
			q: make(chan *marshal.Pending, ring.Depth()),
			// Start beyond the poll window so the first slot pays its
			// dispatch.
			lastActive: -marshal.RingPollIdle - 1,
		}
	}
	ring.SetExecutor(p)
	return p
}

// Start launches one worker per shard.
func (p *Pool) Start() {
	p.wg.Add(len(p.shards))
	for _, sh := range p.shards {
		go p.worker(sh)
	}
}

// Wait blocks until all workers exit (after the ring is closed and the
// queues drained).
func (p *Pool) Wait() { p.wg.Wait() }

// Stats snapshots the scheduling counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers: len(p.shards),
		Wakeups: int(p.wakeups.Load()),
		Drained: int(p.drained.Load()),
	}
}

// Enqueue implements marshal.Executor.
func (p *Pool) Enqueue(s *marshal.Pending) {
	sh := p.shardOf(s)
	sh.mu.Lock()
	sh.pending++
	sh.q <- s
	sh.mu.Unlock()
}

// Claim implements marshal.Executor. An idle shard's exec lock is free,
// and taking it before releasing mu keeps a worker that picks up a later
// slot from running first.
func (p *Pool) Claim(s *marshal.Pending) bool {
	sh := p.shardOf(s)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pending++
	if sh.pending > 1 {
		sh.q <- s
		return false
	}
	sh.exec.Lock()
	return true
}

// Run implements marshal.Executor.
func (p *Pool) Run(s *marshal.Pending) { p.serve(p.shardOf(s), s) }

// Close implements marshal.Executor: each worker drains its queue and
// exits.
func (p *Pool) Close() {
	for _, sh := range p.shards {
		close(sh.q)
	}
}

// worker drains one shard's queue.
func (p *Pool) worker(sh *poolShard) {
	defer p.wg.Done()
	for s := range sh.q {
		sh.exec.Lock()
		p.serve(sh, s)
	}
}

// serve executes one slot with sh.exec held, and releases it. The
// dispatch charge follows the shard's sim-time activity window, not
// goroutine scheduling: a slot arriving while the poller is still hot
// (within RingPollIdle of its last serve) rides the existing dispatch,
// exactly as ringDoorbell treats an armed poller on the host side. A
// stale generation or a dead guest fails the slot fast (it still
// completes — restarts must not leak submissions); otherwise the handler
// runs and its reply is posted.
func (p *Pool) serve(sh *poolShard, s *marshal.Pending) {
	if now := p.clock.Now(); now-sh.lastActive > marshal.RingPollIdle {
		p.clock.Advance(p.model.ProxyDispatch)
		p.wakeups.Add(1)
	} else {
		p.drained.Add(1)
	}
	if !p.ring.FailFastIfUnservable(s) {
		p.ring.Complete(s, s.Handler()(s.Payload()))
	}
	sh.lastActive = p.clock.Now()
	sh.exec.Unlock()
	sh.mu.Lock()
	sh.pending--
	sh.mu.Unlock()
}

// shardOf returns the shard that serves s.
func (p *Pool) shardOf(s *marshal.Pending) *poolShard {
	return p.shards[shard(s.Key(), len(p.shards))]
}

// shard maps a FIFO key to a worker queue.
func shard(key int64, workers int) int {
	if key < 0 {
		key = -key
	}
	return int(key % int64(workers))
}

// KeyForString derives a stable FIFO key from a name (FNV-1a). The binder
// bridge keys ring submissions by service name so transactions to one
// service retain submission order while different services overlap, the
// same way file I/O keys by descriptor.
func KeyForString(name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// Fold to a non-negative int64 so shard()'s negation can't overflow
	// on MinInt64.
	return int64(h &^ (1 << 63))
}
