package proxy

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anception/internal/abi"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

func newPoolRig(t *testing.T, depth, workers int) (*marshal.RingChannel, *Pool, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	model := sim.DefaultLatencyModel()
	phys := kernel.NewPhysical(256 << 20)
	cvm, err := hypervisor.Launch(phys, hypervisor.Config{
		Clock: clock, Model: model, MemoryBytes: 64 << 20, ChannelPages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := marshal.NewRingChannel(cvm, clock, model, nil, depth, 0)
	pool := NewPool(ring, workers, clock, model)
	t.Cleanup(func() {
		ring.Close()
		pool.Wait()
	})
	return ring, pool, clock
}

// TestPoolPreservesFIFOPerKey: the pool runs 4 workers concurrently, yet
// entries sharing a key must execute in submission order — the layer's
// per-descriptor ordering guarantee.
func TestPoolPreservesFIFOPerKey(t *testing.T) {
	const keys, perKey = 4, 10
	ring, pool, _ := newPoolRig(t, keys*perKey, 4)
	pool.Start()

	var mu sync.Mutex
	order := make(map[int64][]int)

	pendings := make([]*marshal.Pending, 0, keys*perKey)
	// Interleave keys in submission order: key 0 seq 0, key 1 seq 0, ...
	for seq := 0; seq < perKey; seq++ {
		for k := int64(0); k < keys; k++ {
			k, seq := k, seq
			p, err := ring.Submit([]byte("x"), k, func(req []byte) []byte {
				mu.Lock()
				order[k] = append(order[k], seq)
				mu.Unlock()
				return req
			})
			if err != nil {
				t.Fatal(err)
			}
			pendings = append(pendings, p)
		}
	}
	for _, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	for k := int64(0); k < keys; k++ {
		got := order[k]
		if len(got) != perKey {
			t.Fatalf("key %d: executed %d of %d entries", k, len(got), perKey)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("key %d: execution order %v violates submission order", k, got)
			}
		}
	}
}

// TestPoolChargesDispatchPerWakeup: entries queued while a worker is busy
// drain off that worker's single wakeup — one ProxyDispatch for the whole
// batch, the guest half of doorbell coalescing.
func TestPoolChargesDispatchPerWakeup(t *testing.T) {
	const n = 16
	ring, pool, _ := newPoolRig(t, n, 4)
	pool.Start()

	// The first handler parks its worker on a gate so the remaining 15
	// same-key entries pile up behind it; on release the worker drains
	// them all without going idle.
	gate := make(chan struct{})
	first, err := ring.Submit([]byte("x"), 7, func(req []byte) []byte {
		<-gate
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	rest := make([]*marshal.Pending, n-1)
	for i := range rest {
		p, err := ring.Submit([]byte("x"), 7, func(req []byte) []byte { return req })
		if err != nil {
			t.Fatal(err)
		}
		rest[i] = p
	}
	close(gate)

	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rest {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	st := pool.Stats()
	if st.Wakeups != 1 || st.Drained != n-1 {
		t.Fatalf("wakeups=%d drained=%d, want 1/%d", st.Wakeups, st.Drained, n-1)
	}
}

// callWithin runs ring.Call on its own goroutine and fails the test if it
// has not returned within d.
func callWithin(t *testing.T, d time.Duration, ring *marshal.RingChannel, key int64, h marshal.GuestHandler) ([]byte, error) {
	t.Helper()
	type out struct {
		resp []byte
		err  error
	}
	ch := make(chan out, 1)
	go func() {
		resp, err := ring.Call([]byte("x"), key, h)
		ch <- out{resp, err}
	}()
	select {
	case o := <-ch:
		return o.resp, o.err
	case <-time.After(d):
		t.Fatal("Call did not return")
		return nil, nil
	}
}

// TestPoolCallOnIdleShardRunsInline: with no worker started, a Call on an
// idle shard still completes, so it needed no worker wakeup; it charges
// the same dispatch a worker would.
func TestPoolCallOnIdleShardRunsInline(t *testing.T) {
	ring, pool, _ := newPoolRig(t, 8, 4)
	for i := 0; i < 2; i++ {
		resp, err := callWithin(t, 5*time.Second, ring, 3, func(req []byte) []byte { return append(req, '!') })
		if err != nil || string(resp) != "x!" {
			t.Fatalf("call %d: resp=%q err=%v", i, resp, err)
		}
	}
	// The first call woke the cold shard; the second rode its poll window.
	if st := pool.Stats(); st.Wakeups != 1 || st.Drained != 1 {
		t.Fatalf("wakeups=%d drained=%d, want 1/1", st.Wakeups, st.Drained)
	}
}

// TestPoolSubmitNeverRunsInline: Submit only queues. With no worker
// started its handler must not run, even on an idle shard; starting the
// pool then serves it.
func TestPoolSubmitNeverRunsInline(t *testing.T) {
	ring, pool, _ := newPoolRig(t, 8, 4)
	var ran atomic.Bool
	p, err := ring.Submit([]byte("x"), 3, func(req []byte) []byte {
		ran.Store(true)
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if ran.Load() {
		t.Fatal("Submit ran the handler without a worker")
	}
	pool.Start()
	if _, err := p.Wait(); err != nil || !ran.Load() {
		t.Fatalf("after Start: ran=%v err=%v", ran.Load(), err)
	}
}

// TestPoolCallQueuesBehindBusyShard: a Call whose shard has a slot
// executing must queue behind it rather than run beside it.
func TestPoolCallQueuesBehindBusyShard(t *testing.T) {
	ring, pool, _ := newPoolRig(t, 8, 4)
	pool.Start()
	var order []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	gate := make(chan struct{})
	parked, err := ring.Submit([]byte("x"), 7, func(req []byte) []byte {
		<-gate
		record("queued")
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	called := make(chan error, 1)
	go func() {
		_, err := ring.Call([]byte("x"), 7, func(req []byte) []byte {
			record("call")
			return req
		})
		called <- err
	}()
	select {
	case err := <-called:
		t.Fatalf("Call returned (err %v) while its shard was busy", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-called; err != nil {
		t.Fatal(err)
	}
	if _, err := parked.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "queued" || order[1] != "call" {
		t.Fatalf("execution order %v, want [queued call]", order)
	}
}

// TestPoolInlineRacesKeepFIFO: goroutines mixing Calls (inline when the
// shard is idle) with Submits (always queued) on shared keys. Each
// goroutine's slots must run in its own submission order, and no two
// slots of one shard may ever execute at once.
func TestPoolInlineRacesKeepFIFO(t *testing.T) {
	const goroutines, rounds, workers = 6, 60, 2
	ring, pool, _ := newPoolRig(t, 32, workers)
	pool.Start()

	var active [workers]atomic.Int32
	var mu sync.Mutex
	seen := make(map[int][]int)
	handler := func(g, seq int, key int64) marshal.GuestHandler {
		return func(req []byte) []byte {
			sh := shard(key, workers)
			if n := active[sh].Add(1); n != 1 {
				t.Errorf("shard %d: %d slots executing at once", sh, n)
			}
			mu.Lock()
			seen[g] = append(seen[g], seq)
			mu.Unlock()
			active[sh].Add(-1)
			return req
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		key := int64(g % 3) // keys 0 and 2 share shard 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := 0
			for r := 0; r < rounds; r++ {
				var queued []*marshal.Pending
				for i := 0; i < r%3; i++ {
					p, err := ring.Submit([]byte("x"), key, handler(g, seq, key))
					if err != nil {
						t.Error(err)
						return
					}
					seq++
					queued = append(queued, p)
				}
				if _, err := ring.Call([]byte("x"), key, handler(g, seq, key)); err != nil {
					t.Error(err)
					return
				}
				seq++
				for _, p := range queued {
					if _, err := p.Wait(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	for g, got := range seen {
		for i, seq := range got {
			if seq != i {
				t.Fatalf("goroutine %d: execution order %v violates submission order", g, got)
			}
		}
		total += len(got)
	}
	rs, ps := ring.RingStats(), pool.Stats()
	if rs.Submitted != total || rs.Completed != total || rs.Failed != 0 {
		t.Fatalf("ring stats %+v, want %d submitted and completed", rs, total)
	}
	if ps.Wakeups+ps.Drained != total {
		t.Fatalf("wakeups %d + drained %d != %d slots served", ps.Wakeups, ps.Drained, total)
	}
}

// rearmingExec re-keys the ring between a slot's submission and its
// inline run, as a supervisor restart landing at that moment would.
type rearmingExec struct {
	*Pool
	ring *marshal.RingChannel
	gen  int
}

func (e rearmingExec) Run(s *marshal.Pending) {
	e.ring.Rearm(e.gen)
	e.Pool.Run(s)
}

// TestPoolInlineSlotFailsFast: a slot run inline still fails EHOSTDOWN,
// without running its handler, when the ring was re-armed after it was
// submitted or the guest died; Submitted = Completed + Failed holds and
// every failed slot was still served.
func TestPoolInlineSlotFailsFast(t *testing.T) {
	ring, pool, _ := newPoolRig(t, 8, 4)
	ran := false
	h := func(req []byte) []byte {
		ran = true
		return req
	}

	ring.SetExecutor(rearmingExec{Pool: pool, ring: ring, gen: 1 << 20})
	if _, err := ring.Call([]byte("x"), 1, h); !errors.Is(err, abi.EHOSTDOWN) {
		t.Fatalf("call re-armed mid-flight: %v, want EHOSTDOWN", err)
	}
	ring.SetExecutor(pool)

	// The probe passes the submit-side check, then reports the guest dead
	// when the executor checks the slot.
	probes := 0
	ring.SetLiveness(func() bool {
		probes++
		return probes%2 == 1
	})
	if _, err := ring.Call([]byte("x"), 1, h); !errors.Is(err, abi.EHOSTDOWN) {
		t.Fatalf("call with guest dying mid-flight: %v, want EHOSTDOWN", err)
	}
	if ran {
		t.Fatal("a fail-fast slot ran its handler")
	}

	ring.SetLiveness(nil)
	if _, err := ring.Call([]byte("x"), 1, h); err != nil || !ran {
		t.Fatalf("healthy call after failures: ran=%v err=%v", ran, err)
	}
	rs, ps := ring.RingStats(), pool.Stats()
	if rs.Submitted != 3 || rs.Completed != 1 || rs.Failed != 2 {
		t.Fatalf("ring stats %+v, want submitted=3 completed=1 failed=2", rs)
	}
	if ps.Wakeups+ps.Drained != 3 {
		t.Fatalf("wakeups %d + drained %d, want 3 slots served", ps.Wakeups, ps.Drained)
	}
}

// TestPoolCloseStrandsNoWaiter: Close while goroutines keep calling and
// submitting. Every caller returns — with its reply or ENXIO — the
// workers exit, and every slot that got in was served.
func TestPoolCloseStrandsNoWaiter(t *testing.T) {
	ring, pool, _ := newPoolRig(t, 4, 2)
	pool.Start()

	echo := func(req []byte) []byte { return req }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				var err error
				if (g+i)%2 == 0 {
					_, err = ring.Call([]byte("x"), int64(g), echo)
				} else {
					var p *marshal.Pending
					if p, err = ring.Submit([]byte("x"), int64(g), echo); err == nil {
						_, err = p.Wait()
					}
				}
				if errors.Is(err, abi.ENXIO) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	ring.Close()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		pool.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a waiter or worker was stranded by Close")
	}
	rs, ps := ring.RingStats(), pool.Stats()
	if rs.Submitted != rs.Completed+rs.Failed {
		t.Fatalf("ring stats %+v: submitted != completed + failed", rs)
	}
	if ps.Wakeups+ps.Drained != rs.Submitted {
		t.Fatalf("wakeups %d + drained %d != %d submitted", ps.Wakeups, ps.Drained, rs.Submitted)
	}
}

// TestPoolQuiesceStrandsNoWaiter: Quiesce waits out a parked slot and
// the slots queued behind it, and every waiter then gets its reply.
func TestPoolQuiesceStrandsNoWaiter(t *testing.T) {
	ring, pool, _ := newPoolRig(t, 8, 2)
	pool.Start()
	gate := make(chan struct{})
	echo := func(req []byte) []byte { return req }
	parked, err := ring.Submit([]byte("x"), 1, func(req []byte) []byte {
		<-gate
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := ring.Call([]byte("x"), 1, echo)
			results <- err
		}()
	}
	for ring.RingStats().Submitted < 5 {
		time.Sleep(time.Millisecond)
	}

	quiesced := make(chan struct{})
	go func() {
		ring.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned with slots in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce never returned")
	}
	if _, err := parked.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter was stranded after Quiesce")
		}
	}
}
