package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"anception/internal/anception"
	"anception/internal/netstack"
)

// net-open runs an echo server app built from the Proc socket API —
// listen, epoll_wait, batched accept4, recv/send, close — against a
// client app on the same AutoTune device, with the 60/30/10% mix of
// 256 B, 4 KiB and 64 KiB requests. A closed-loop phase measures
// capacity; an open-loop phase then sends arrivals at a fixed absolute
// rate in simulated time and times each session from when it was due.
// It is the only open-loop workload and the only one that drives the
// netstack server side (accept/epoll batching, receive budgets) and a
// deep sockop ring.
//
// The benchmark has its own generator rather than using
// workloads.RunNetServer: RunNetServer sets its rate to 0.8 of the
// capacity it measures, which would hide a latency gain, and it closes
// its device before any counter can be read.

const (
	netLanes       = 4
	netWave        = netLanes * anception.DefaultNetBatch
	netClosed      = 2048
	netOpen        = 16384
	netPortBase    = 9100
	netPayloadPool = 8
	// netGap is the open loop's interarrival time: about 0.63 of the
	// closed-loop capacity (about 885 sessions per simulated second)
	// measured when this benchmark was written. It is fixed, so a faster
	// server shows as lower latency.
	netGap = 1800 * time.Microsecond
)

// netSizes are the request size tiers; a request's size is drawn
// within a quarter of its tier's size either way.
var netSizes = [...]int{256, 4 << 10, 64 << 10}

const netMaxReq = 80 << 10

// netMix is the share of each size tier: 60% small, 30% page, 10% bulk.
var netMix = []float64{6, 3, 1}

// netRig is the booted server, its lanes and the client.
type netRig struct {
	d        *anception.Device
	server   *anception.Proc
	client   *anception.Proc
	epfd     int
	addrs    []string
	payloads [len(netSizes)][][]byte
	srvBuf   []byte // the server's receive buffer
	cliBuf   []byte // the client's receive buffer
	rec      *recorder
	res      *roundResult
}

// netSession is one client session in flight.
type netSession struct {
	fd  int
	req []byte
	due time.Duration
}

func runNetOpen(cfg roundConfig) (*roundResult, error) {
	res := &roundResult{}
	t0 := time.Now()
	var err error
	if res.paperErrPct, err = probeTableI(); err != nil {
		return nil, err
	}
	d, err := anception.NewDevice(deviceOptions())
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	defer d.Close()
	rig := &netRig{d: d, res: res, srvBuf: make([]byte, netMaxReq), cliBuf: make([]byte, netMaxReq)}
	if rig.server, err = launchApp(d, "com.perfbench.netserver"); err != nil {
		return nil, err
	}
	if rig.client, err = launchApp(d, "com.perfbench.netclient"); err != nil {
		return nil, err
	}
	if rig.epfd, err = rig.server.EpollCreate(); err != nil {
		return nil, fmt.Errorf("epoll_create: %w", err)
	}
	for lane := 0; lane < netLanes; lane++ {
		addr := fmt.Sprintf("echo.cvm:%d", netPortBase+lane)
		fd, err := rig.server.Socket(netstack.AFInet, netstack.SockStream, 0)
		if err != nil {
			return nil, fmt.Errorf("socket: %w", err)
		}
		if err := rig.server.Bind(fd, addr); err != nil {
			return nil, fmt.Errorf("bind %s: %w", addr, err)
		}
		if err := rig.server.Listen(fd, 0); err != nil {
			return nil, fmt.Errorf("listen %s: %w", addr, err)
		}
		if err := rig.server.EpollCtl(rig.epfd, 1 /* EPOLL_CTL_ADD */, fd); err != nil {
			return nil, fmt.Errorf("epoll_ctl %s: %w", addr, err)
		}
		rig.addrs = append(rig.addrs, addr)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for t, size := range netSizes {
		for i := 0; i < netPayloadPool; i++ {
			buf := make([]byte, size*5/4)
			rng.Read(buf)
			rig.payloads[t] = append(rig.payloads[t], buf)
		}
	}
	closed := rig.genRequests(rng, cfg.size(netClosed, 2*netWave))
	open := rig.genRequests(rng, cfg.size(netOpen, 2*netWave))
	res.setup = time.Since(t0)

	rig.rec = newRecorder(d.Clock, 0, cfg.traced, cfg.epoch, cfg.spans, len(open))
	win := openDeviceWindow(d)

	// Closed loop: waves of sessions, each wave opened, served and
	// drained before the next.
	for n := 0; n < len(closed); n += netWave {
		wave := closed[n:min(n+netWave, len(closed))]
		sessions := make([]netSession, 0, len(wave))
		for i, req := range wave {
			sessions = append(sessions, rig.open(n+i, req, d.Clock.Now()))
		}
		if err := rig.serve(); err != nil {
			return nil, err
		}
		for _, s := range sessions {
			rig.drain(s)
		}
	}
	res.simOpsPerSec = float64(len(closed)) / (d.Clock.Now() - win.simStart).Seconds()

	// Open loop: session i is due at start + i*netGap whatever the
	// server's progress. Every session due by the time the server turns
	// round joins the next wave.
	start := d.Clock.Now()
	for n := 0; n < len(open); {
		if due := start + time.Duration(n)*netGap; d.Clock.Now() < due {
			d.Clock.Advance(due - d.Clock.Now())
		}
		var sessions []netSession
		for ; n < len(open) && len(sessions) < netWave; n++ {
			due := start + time.Duration(n)*netGap
			if due > d.Clock.Now() && len(sessions) > 0 {
				break
			}
			sessions = append(sessions, rig.open(n, open[n], due))
		}
		if err := rig.serve(); err != nil {
			return nil, err
		}
		for _, s := range sessions {
			rig.drain(s)
			rig.rec.lat = append(rig.rec.lat, d.Clock.Now()-s.due)
		}
	}
	win.close(res, cfg.epoch)

	res.ops = len(closed) + len(open)
	res.rec = rig.rec
	for _, reqs := range [][][]byte{closed, open} {
		for _, req := range reqs {
			if len(req) > netSizes[1]*5/4 {
				res.bulkOps++
			}
		}
	}
	win.layers(res)
	d.Close()
	res.violations = checkIdentities("cvm", d)
	return res, nil
}

// genRequests draws n request payloads from the size mix.
func (r *netRig) genRequests(rng *rand.Rand, n int) [][]byte {
	reqs := make([][]byte, n)
	for i, t := range mix(rng, n, netMix) {
		size := netSizes[t]*3/4 + rng.Intn(netSizes[t]/2+1)
		reqs[i] = r.payloads[t][rng.Intn(netPayloadPool)][:size]
	}
	return reqs
}

// open starts session idx: the client connects to a lane and sends req.
func (r *netRig) open(idx int, req []byte, due time.Duration) netSession {
	m := r.rec.start()
	defer r.rec.stop(m, opConnect, false)
	fd, err := r.client.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err == nil {
		err = r.client.Connect(fd, r.addrs[idx%len(r.addrs)])
	}
	if err == nil {
		_, err = r.client.Send(fd, req)
	}
	if err != nil {
		r.res.fail("session %d open: %v", idx, err)
		return netSession{fd: -1, req: req, due: due}
	}
	return netSession{fd: fd, req: req, due: due}
}

// serve runs the server's event loop once: one epoll_wait gathers the
// ready lanes, each lane's backlog drains in accept4 batches, and every
// connection is echoed and closed.
func (r *netRig) serve() error {
	m := r.rec.start()
	ready, err := r.server.EpollWait(r.epfd, 0)
	r.rec.stop(m, opEpoll, false)
	if err != nil {
		return fmt.Errorf("epoll_wait: %w", err)
	}
	for _, lfd := range ready {
		for {
			m := r.rec.start()
			conns, err := r.server.AcceptBatch(lfd, 0)
			r.rec.stop(m, opAccept, false)
			if err != nil {
				break // EAGAIN: lane drained
			}
			for _, cfd := range conns {
				m := r.rec.start()
				n, err := r.server.RecvInto(cfd, r.srvBuf)
				if err == nil {
					_, err = r.server.Send(cfd, r.srvBuf[:n])
				}
				if err == nil {
					err = r.server.Close(cfd)
				}
				r.rec.stop(m, opEcho, false)
				if err != nil {
					r.res.fail("server echo: %v", err)
				}
			}
		}
	}
	return nil
}

// drain finishes a session: the client receives the echo, checks it
// byte for byte and closes.
func (r *netRig) drain(s netSession) {
	if s.fd < 0 {
		return
	}
	m := r.rec.start()
	defer r.rec.stop(m, opRecv, false)
	n, err := r.client.RecvInto(s.fd, r.cliBuf[:len(s.req)])
	if err == nil {
		err = r.client.Close(s.fd)
	}
	if err != nil || !bytes.Equal(r.cliBuf[:n], s.req) {
		r.res.fail("session echo: %d of %d bytes, %v", n, len(s.req), err)
	}
}
