package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if got := c.Advance(5 * time.Microsecond); got != 5*time.Microsecond {
		t.Fatalf("Advance returned %v, want 5us", got)
	}
	c.Advance(3 * time.Nanosecond)
	if got := c.Now(); got != 5*time.Microsecond+3*time.Nanosecond {
		t.Fatalf("Now() = %v", got)
	}
}

func TestClockIgnoresNegativeAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s (negative advance must be ignored)", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	c := NewClock()
	prev := c.Now()
	f := func(d int32) bool {
		c.Advance(time.Duration(d))
		now := c.Now()
		ok := now >= prev
		prev = now
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	c.Advance(time.Millisecond)
	sw := StartStopwatch(c)
	c.Advance(42 * time.Microsecond)
	if got := sw.Elapsed(); got != 42*time.Microsecond {
		t.Fatalf("Elapsed() = %v, want 42us", got)
	}
}

func TestMicrosecondsFormat(t *testing.T) {
	if got := Microseconds(28610 * time.Nanosecond); got != "28.61 us" {
		t.Fatalf("Microseconds = %q", got)
	}
}

func TestDefaultModelAnchorsTableINative(t *testing.T) {
	m := DefaultLatencyModel()
	// Table I native column: getpid 0.76 us, write 28.61 us, read 6.51 us.
	if got := m.SyscallEntry; got != 760*time.Nanosecond {
		t.Errorf("SyscallEntry = %v, want 760ns", got)
	}
	if got := m.SyscallEntry + m.StorageWritePerPage; got != 28610*time.Nanosecond {
		t.Errorf("native 4096B write = %v, want 28.61us", got)
	}
	if got := m.SyscallEntry + m.StorageReadPerPage; got != 6510*time.Nanosecond {
		t.Errorf("native 4096B read = %v, want 6.51us", got)
	}
}

func TestRedirectFixedCostComposition(t *testing.T) {
	m := DefaultLatencyModel()
	want := 2*m.WorldSwitch + m.ProxyDispatch
	if got := m.RedirectFixedCost(); got != want {
		t.Fatalf("RedirectFixedCost = %v, want %v", got, want)
	}
	if m.NaiveRedirectFixedCost() <= m.RedirectFixedCost() {
		t.Fatal("naive dispatch must cost more than the in-kernel proxy wait")
	}
	if diff := m.NaiveRedirectFixedCost() - m.RedirectFixedCost(); diff != 4*m.GuestContextSwitch {
		t.Fatalf("naive dispatch should add exactly 4 guest context switches, added %v", diff)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	f := func(n uint8) bool {
		bound := int(n%100) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGBytesFills(t *testing.T) {
	r := NewRNG(5)
	b := make([]byte, 33)
	r.Bytes(b)
	zero := 0
	for _, x := range b {
		if x == 0 {
			zero++
		}
	}
	if zero > 8 {
		t.Fatalf("suspiciously many zero bytes: %d/33", zero)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(9)
	child := parent.Fork()
	// The child must not replay the parent's stream.
	p, c := parent.Uint64(), child.Uint64()
	if p == c {
		t.Fatal("forked stream mirrors parent")
	}
}

func TestTraceRecordsAndCounts(t *testing.T) {
	c := NewClock()
	tr := NewTrace(c)
	tr.Record(EvSyscall, "open %q", "/data/x")
	c.Advance(time.Microsecond)
	tr.Record(EvRedirect, "write fd=%d", 3)
	if got := tr.Count(EvSyscall); got != 1 {
		t.Fatalf("Count(EvSyscall) = %d", got)
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("len(events) = %d", len(evs))
	}
	if evs[1].At != time.Microsecond {
		t.Fatalf("second event stamped %v, want 1us", evs[1].At)
	}
	if got := tr.Matching("open"); len(got) != 1 {
		t.Fatalf("Matching(open) = %v", got)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Record(EvSyscall, "dropped")
	if tr.Count(EvSyscall) != 0 {
		t.Fatal("nil trace counted an event")
	}
	if tr.Events() != nil {
		t.Fatal("nil trace returned events")
	}
	tr.Reset()
}

func TestTraceReset(t *testing.T) {
	tr := NewTrace(NewClock())
	tr.Record(EvBinder, "txn")
	tr.Reset()
	if tr.Count(EvBinder) != 0 || len(tr.Events()) != 0 {
		t.Fatal("Reset did not clear trace")
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EvSyscall:     "syscall",
		EvRedirect:    "redirect",
		EvWorldSwitch: "worldswitch",
		EvBinder:      "binder",
		EvExploit:     "exploit",
		EvSecurity:    "security",
		EvLifecycle:   "lifecycle",
		EventKind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestTraceDumpContainsKindAndMessage(t *testing.T) {
	tr := NewTrace(NewClock())
	tr.Record(EvSecurity, "blocked ptrace")
	dump := tr.Dump()
	for _, want := range []string{"security", "blocked ptrace"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump() missing %q:\n%s", want, dump)
		}
	}
}

func TestSpanMatchesStopwatchForOneActor(t *testing.T) {
	c := NewClock()
	var app Account
	c.Advance(time.Millisecond)
	sp := c.StartSpan(&app)
	sw := StartStopwatch(c)
	c.Charge(&app, 30*time.Microsecond)
	c.Advance(12 * time.Microsecond)
	if got, want := sp.Elapsed(), sw.Elapsed(); got != want || got != 42*time.Microsecond {
		t.Fatalf("span %v, stopwatch %v, want both 42us", got, want)
	}
}

func TestSpanExcludesOtherActorsCharges(t *testing.T) {
	c := NewClock()
	var app, proxy, other Account
	sp := c.StartSpan(&app, &proxy)
	c.Charge(&app, 1*time.Microsecond)
	c.Charge(&other, 12*time.Millisecond) // another app's binder call
	c.Charge(&proxy, 5*time.Microsecond)
	c.Advance(2 * time.Microsecond) // shared resource: counts for everyone
	c.Charge(nil, 3*time.Microsecond)
	if got := sp.Elapsed(); got != 11*time.Microsecond {
		t.Fatalf("Elapsed() = %v, want 11us", got)
	}
	if got := c.Now(); got != 12*time.Millisecond+11*time.Microsecond {
		t.Fatalf("Now() = %v: charges must still advance the shared clock", got)
	}
	if got := c.StartSpan().Elapsed(); got != 0 {
		t.Fatalf("fresh span = %v", got)
	}
}

func TestSpanConcurrentActorsProperty(t *testing.T) {
	// Whatever order other actors' charges interleave with an actor's
	// own, its span is exactly its own plus the shared charges.
	f := func(own, foreign []uint16, shared uint16) bool {
		c := NewClock()
		var me, them Account
		sp := c.StartSpan(&me)
		var want time.Duration
		for i := 0; i < len(own) || i < len(foreign); i++ {
			if i < len(own) {
				c.Charge(&me, time.Duration(own[i]))
				want += time.Duration(own[i])
			}
			if i < len(foreign) {
				c.Charge(&them, time.Duration(foreign[i]))
			}
		}
		c.Advance(time.Duration(shared))
		return sp.Elapsed() == want+time.Duration(shared)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
