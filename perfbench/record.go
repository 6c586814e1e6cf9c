package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"anception/internal/sim"
)

// opKind is one class of call the benchmark makes into a layer. Every
// call is timed on the simulated clock; a traced round also times it on
// the host clock and keeps a span for it.
type opKind uint8

const (
	opGetpid opKind = iota
	opOpen
	opStat
	opRead4k
	opWrite4k
	opPread64k
	opPwrite64k
	opChain
	opEcho
	opBinder
	opDraw
	opFsync
	opInsert
	opCommit
	opGet
	opAccept
	opEpoll
	opConnect
	opInstall
	opRecv
	numOps
)

// opNames are the span names; the per-layer metrics are
// "<name>.sim_us" and "<name>.host_ns" for the first fifteen.
var opNames = [numOps]string{
	"anception.getpid", "anception.open", "anception.stat", "anception.read4k",
	"anception.write4k", "anception.pread64k", "anception.pwrite64k", "anception.chain",
	"anception.echo", "anception.binder", "anception.draw", "anception.fsync",
	"minidb.insert", "minidb.commit", "minidb.get",
	"anception.accept", "anception.epoll_wait", "anception.connect", "anception.fleet.install",
	"anception.client_recv",
}

// reportedOps are the classes with per-layer metrics; the later ones
// only appear as spans.
const reportedOps = opAccept

// maxSpans bounds the spans one traced run keeps in memory.
const maxSpans = 1 << 16

// span is one timed call: both clocks, and the span that caused it.
type span struct {
	op       opKind
	shard    int8
	parent   int32
	simStart time.Duration
	simEnd   time.Duration
	hostFrom time.Duration // since the recorder's epoch
	hostTo   time.Duration
}

// recorder times the calls of one driver goroutine against one device
// clock. It is not safe for concurrent use; each driver owns one and the
// round merges them when the window closes.
type recorder struct {
	clock  *sim.Clock
	shard  int8
	traced bool
	epoch  time.Time
	spans  *[]span // where spans go; nil unless this round keeps them
	parent int32

	sim  [numOps][]time.Duration
	host [numOps][]time.Duration
	// lat holds the end-to-end latency samples: every timed call except
	// those the workload excludes (host UI draws on app-fleet).
	lat []time.Duration
}

// mark is the start of one timed call.
type mark struct {
	sim  time.Duration
	host time.Time
}

func newRecorder(clock *sim.Clock, shard int, traced bool, epoch time.Time, spans *[]span, capHint int) *recorder {
	r := &recorder{clock: clock, shard: int8(shard), traced: traced, epoch: epoch, spans: spans, parent: int32(-1 - shard)}
	r.lat = make([]time.Duration, 0, capHint)
	return r
}

func (r *recorder) start() mark {
	m := mark{sim: r.clock.Now()}
	if r.traced {
		m.host = time.Now()
	}
	return m
}

// stop closes the call started at m and returns its simulated latency.
// e2e says whether the call is one of the workload's latency samples.
func (r *recorder) stop(m mark, op opKind, e2e bool) time.Duration {
	var hostEnd time.Time
	if r.traced {
		hostEnd = time.Now()
	}
	simEnd := r.clock.Now()
	d := simEnd - m.sim
	r.sim[op] = append(r.sim[op], d)
	if e2e {
		r.lat = append(r.lat, d)
	}
	if r.traced {
		r.host[op] = append(r.host[op], hostEnd.Sub(m.host))
		if r.spans != nil && len(*r.spans) < maxSpans {
			*r.spans = append(*r.spans, span{
				op: op, shard: r.shard, parent: r.parent,
				simStart: m.sim, simEnd: simEnd,
				hostFrom: m.host.Sub(r.epoch), hostTo: hostEnd.Sub(r.epoch),
			})
		}
	}
	return d
}

// merge folds other's samples into r.
func (r *recorder) merge(other *recorder) {
	for op := range r.sim {
		r.sim[op] = append(r.sim[op], other.sim[op]...)
		r.host[op] = append(r.host[op], other.host[op]...)
	}
	r.lat = append(r.lat, other.lat...)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo]) + frac*float64(xs[lo+1]-xs[lo])
}

// median returns the median of vs (sorted in place), 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// traceEvent is one span in Chrome trace-event JSON, on the host clock;
// the simulated span and the parent ride in args.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes spans to dir as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open.
func writeTrace(dir, workload string, seed int64, spans []span, windows []span) error {
	if dir == "" || len(spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]traceEvent, 0, len(spans)+len(windows))
	emit := func(id int, name string, s span) {
		events = append(events, traceEvent{
			Name: name, Ph: "X", Ts: us(s.hostFrom), Dur: us(s.hostTo - s.hostFrom),
			Pid: int(s.shard), Tid: 0,
			Args: map[string]any{
				"id": id, "parent": s.parent,
				"sim_start_us": us(s.simStart), "sim_end_us": us(s.simEnd),
			},
		})
	}
	for i, w := range windows {
		emit(-1-i, "window", w)
	}
	for i, s := range spans {
		emit(i, opNames[s.op], s)
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
