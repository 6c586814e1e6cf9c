// Package sim provides the discrete-event simulation substrate used by the
// Anception reproduction: a virtual clock, a calibrated latency model, a
// deterministic random source, and an event trace.
//
// Every other package charges costs against a Clock instead of sleeping or
// reading wall time, so experiments are exactly reproducible and the
// latency figures reported by the benchmark harness are properties of the
// model, not of the machine running the simulation.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Clock is a virtual clock measured in nanoseconds of simulated time.
// The zero value is a clock at t=0, ready to use.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
	// credited is the total ever charged to accounts (see Charge).
	credited time.Duration
}

// Account is the simulated time charged on behalf of one actor — a task's
// own work, such as its system calls. Actors run in parallel, so this time
// delays only its owner: a Span excludes what other actors' accounts were
// charged while it was open. Unattributed charges (Advance) model shared
// resources and count in every span. The zero value is ready to use; an
// Account must only be charged on one Clock, whose lock guards it.
type Account struct {
	charged time.Duration
}

// NewClock returns a clock starting at t=0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time since boot.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves simulated time forward by d and returns the new time.
// Negative durations are ignored: time never runs backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	return c.Charge(nil, d)
}

// Charge advances the clock by d on behalf of a, exactly as Advance does,
// and credits d to a; a nil a credits no one.
func (c *Clock) Charge(a *Account, d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	if a != nil {
		a.charged += d
		c.credited += d
	}
	return c.now
}

// maxSpanAccounts bounds the accounts one Span treats as its own: an app
// task and the proxy that runs its calls.
const maxSpanAccounts = 2

// Span measures the simulated time an actor experiences between two points
// on a shared clock: the clock's advance minus what other actors' accounts
// were charged in between. When no other actor charges meanwhile it equals
// a Stopwatch, so a single actor's spans are unchanged; when actors run
// concurrently, how their goroutines interleave no longer leaks into it.
type Span struct {
	clock    *Clock
	own      [maxSpanAccounts]*Account
	start    time.Duration
	credited time.Duration // clock.credited at start
	mine     time.Duration // own accounts' charges at start
}

// StartSpan begins a span owned by up to two distinct accounts; nil
// entries are ignored.
func (c *Clock) StartSpan(own ...*Account) Span {
	if len(own) > maxSpanAccounts {
		panic("sim: a span owns at most two accounts")
	}
	s := Span{clock: c}
	copy(s.own[:], own)
	c.mu.Lock()
	defer c.mu.Unlock()
	s.start, s.credited, s.mine = c.now, c.credited, s.ownCharged()
	return s
}

// Elapsed reports the span's simulated time so far.
func (s Span) Elapsed() time.Duration {
	c := s.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	foreign := (c.credited - s.credited) - (s.ownCharged() - s.mine)
	return c.now - s.start - foreign
}

// ownCharged sums the own accounts' charges; the caller holds clock.mu.
func (s *Span) ownCharged() time.Duration {
	var sum time.Duration
	for _, a := range s.own {
		if a != nil {
			sum += a.charged
		}
	}
	return sum
}

// Stopwatch measures a span of simulated time on a clock.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// StartStopwatch begins measuring simulated time on c.
func StartStopwatch(c *Clock) Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed reports the simulated time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return s.clock.Now() - s.start
}

// Microseconds formats a duration as fractional microseconds, the unit the
// paper's Table I uses.
func Microseconds(d time.Duration) string {
	return fmt.Sprintf("%.2f us", float64(d)/float64(time.Microsecond))
}
