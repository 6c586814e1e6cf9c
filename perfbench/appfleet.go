package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/netstack"
	"anception/internal/workloads"
)

// app-fleet replays the ProfileDroid app profiles on a two-shard
// AutoTune fleet, one driver goroutine per shard. It is the only
// workload where the cache, ring, grants, fusion, policy, the binder
// session and reply cache, and fleet placement all carry load. Shards
// have private clocks, so its simulated numbers repeat.
//
// Each app draws ioctls at its profile's share (58.7–80.1%); 81.35% of
// them are host UI draws and the rest are location binder calls. The
// paper gives no split of the remaining calls; fleetSplit is this
// benchmark's assumption.
//
// Apps issue their calls in bursts of one to eight, and a latency
// sample is the simulated time of one burst's non-UI calls. Most calls
// here are served from host memory at a fixed modelled cost, so per-call
// percentiles would only ever read one of a few constants; burst sums
// keep the percentiles sensitive to every layer's cost and to the mix.

const (
	fleetShards     = 2
	fleetApps       = 12
	fleetWSPages    = 256 // per app: each shard's six apps hold 1.5x DefaultCacheBudgetBytes
	fleetBulkExtent = 16  // pages per 64 KiB bulk call
	fleetBulkFile   = 16  // extents in each app's bulk file
	fleetEchoAddr   = "echo.fleet:80"
	fleetOpsPerApp  = 15000
	fleetWarmPerApp = 600
)

// fleetSplit divides an app's non-ioctl calls, in percent.
var fleetSplit = [...]struct {
	op     opKind
	weight int
}{
	{opRead4k, 28}, {opWrite4k, 18}, {opPread64k, 8}, {opPwrite64k, 4},
	{opChain, 12}, {opEcho, 12}, {opStat, 14}, {opFsync, 4},
}

// fleetApp is one enrolled app and the state its outputs are checked
// against.
type fleetApp struct {
	id       uint32
	fa       *anception.FleetApp
	p        *anception.Proc
	profile  workloads.AppProfile
	ws, bulk int
	sock     int
	bfd      int
	chainLen int64
	wsVer    []uint64
	bulkVer  []uint64
}

func (a *fleetApp) bulkOwner() uint32  { return a.id | 1<<16 }
func (a *fleetApp) chainOwner() uint32 { return a.id | 2<<16 }

// fleetOp is one generated call for one app; last marks the end of the
// app's burst.
type fleetOp struct {
	app  *fleetApp
	kind opKind
	arg  int32
	last bool
}

// fleetBuffers are one driver's reusable call buffers: page and extent
// are written from, in is read into.
type fleetBuffers struct {
	page, extent, in []byte
	echoes           [][]byte
	chainBuf         []byte
}

func newFleetBuffers(rng *rand.Rand) *fleetBuffers {
	b := &fleetBuffers{
		page:     make([]byte, abi.PageSize),
		extent:   make([]byte, fleetBulkExtent*abi.PageSize),
		in:       make([]byte, fleetBulkExtent*abi.PageSize),
		echoes:   make([][]byte, 32),
		chainBuf: make([]byte, abi.PageSize),
	}
	for i := range b.echoes {
		b.echoes[i] = make([]byte, 128)
		rng.Read(b.echoes[i])
	}
	return b
}

func runAppFleet(cfg roundConfig) (*roundResult, error) {
	res := &roundResult{}
	t0 := time.Now()
	opts := deviceOptions()
	opts.FleetSize = fleetShards
	fleet, err := anception.NewFleet(opts)
	if err != nil {
		return nil, fmt.Errorf("boot fleet: %w", err)
	}
	defer fleet.Close()
	if res.paperErrPct, err = probeTableI(); err != nil {
		return nil, err
	}
	for _, sh := range fleet.Shards() {
		sh.Dev.RegisterRemote(fleetEchoAddr, func(req []byte) []byte { return append([]byte(nil), req...) })
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	profiles := workloads.ProfiledApps()
	assign := rng.Perm(fleetApps)
	apps := make([]*fleetApp, fleetApps)
	for i := range apps {
		a, err := installFleetApp(fleet, cfg, uint32(i), profiles[assign[i]%len(profiles)], rng)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}

	// One generated op list per shard: its apps' calls, interleaved
	// round-robin, after an unmeasured warm-up of the same blend.
	perShard := make([][]*fleetApp, fleetShards)
	for _, a := range apps {
		perShard[a.fa.Shard()] = append(perShard[a.fa.Shard()], a)
	}
	warm := make([][]fleetOp, fleetShards)
	ops := make([][]fleetOp, fleetShards)
	bufs := make([]*fleetBuffers, fleetShards)
	for s, shardApps := range perShard {
		warm[s] = genFleetOps(rng, shardApps, cfg.size(fleetWarmPerApp, 50))
		ops[s] = genFleetOps(rng, shardApps, cfg.size(fleetOpsPerApp, 100))
		bufs[s] = newFleetBuffers(rng)
	}
	warmRes := make([]roundResult, fleetShards)
	var wg sync.WaitGroup
	for s := range perShard {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rec := newRecorder(fleet.Shard(s).Dev.Clock, s, false, cfg.epoch, nil, len(warm[s]))
			driveFleet(rec, &warmRes[s], bufs[s], warm[s])
		}(s)
	}
	wg.Wait()
	for s := range warmRes {
		res.failed += warmRes[s].failed
	}
	res.setup = time.Since(t0)

	recs := make([]*recorder, fleetShards)
	shardRes := make([]roundResult, fleetShards)
	simStart := make([]time.Duration, fleetShards)
	simElapsed := make([]time.Duration, fleetShards)
	c0 := make([]counters, fleetShards)
	for s, sh := range fleet.Shards() {
		recs[s] = newRecorder(sh.Dev.Clock, s, cfg.traced, cfg.epoch, nil, len(ops[s]))
		c0[s] = readCounters(sh.Dev)
	}
	tracedSpans := make([][]span, fleetShards)
	win := openWindow()
	hostStart := time.Now()
	for s := range perShard {
		if cfg.spans != nil {
			tracedSpans[s] = make([]span, 0, len(ops[s]))
			recs[s].spans = &tracedSpans[s]
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			clock := fleet.Shard(s).Dev.Clock
			simStart[s] = clock.Now()
			driveFleet(recs[s], &shardRes[s], bufs[s], ops[s])
			simElapsed[s] = clock.Now() - simStart[s]
		}(s)
	}
	wg.Wait()
	hostEnd := time.Since(cfg.epoch)
	win.close(res)

	rec := newRecorder(fleet.Shard(0).Dev.Clock, 0, cfg.traced, cfg.epoch, nil, 0)
	var delta layerDelta
	slowest, fastest := simElapsed[0], simElapsed[0]
	for s, sh := range fleet.Shards() {
		rec.merge(recs[s])
		res.ops += len(ops[s])
		res.failed += shardRes[s].failed
		for _, op := range ops[s] {
			if op.kind == opPread64k || op.kind == opPwrite64k {
				res.bulkOps++
			}
		}
		delta.add(c0[s], readCounters(sh.Dev))
		slowest, fastest = max(slowest, simElapsed[s]), min(fastest, simElapsed[s])
		res.windows = append(res.windows, span{shard: int8(s), parent: -1,
			simStart: simStart[s], simEnd: simStart[s] + simElapsed[s],
			hostFrom: hostStart.Sub(cfg.epoch), hostTo: hostEnd})
		if cfg.spans != nil {
			*cfg.spans = append(*cfg.spans, tracedSpans[s]...)
		}
	}
	res.rec = rec
	res.simOpsPerSec = float64(res.ops) / slowest.Seconds()
	res.layer = delta.metrics(res.ops, res.bulkOps)
	res.layer["anception.fleet.shard_skew"] = float64(slowest) / float64(fastest)
	fleet.Close()
	for s, sh := range fleet.Shards() {
		res.violations = append(res.violations, checkIdentities(fmt.Sprintf("shard-%d", s), sh.Dev)...)
	}
	return res, nil
}

// installFleetApp enrols one app through Fleet.InstallApp and gives it
// a stamped working-set file, a bulk file, a chain file of seeded size,
// a connected echo socket and a binder descriptor.
func installFleetApp(fleet *anception.Fleet, cfg roundConfig, id uint32, prof workloads.AppProfile, rng *rand.Rand) (*fleetApp, error) {
	before := make([]time.Duration, fleet.Size())
	for s, sh := range fleet.Shards() {
		before[s] = sh.Dev.Clock.Now()
	}
	hostStart := time.Now()
	fa, err := fleet.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.perfbench.fleet%02d.%s", id, prof.Name)})
	if err != nil {
		return nil, fmt.Errorf("install app %d: %w", id, err)
	}
	if s := fa.Shard(); cfg.spans != nil {
		*cfg.spans = append(*cfg.spans, span{op: opInstall, shard: int8(s), parent: -1 - int32(s),
			simStart: before[s], simEnd: fleet.Shard(s).Dev.Clock.Now(),
			hostFrom: hostStart.Sub(cfg.epoch), hostTo: time.Since(cfg.epoch)})
	}
	a := &fleetApp{id: id, fa: fa, p: fa.Proc(), profile: prof,
		wsVer: make([]uint64, fleetWSPages), bulkVer: make([]uint64, fleetBulkFile)}
	p := a.p
	if a.ws, err = p.Open("ws.dat", abi.ORdWr|abi.OCreat, 0o600); err != nil {
		return nil, fmt.Errorf("app %d open ws: %w", id, err)
	}
	if a.bulk, err = p.Open("bulk.dat", abi.ORdWr|abi.OCreat, 0o600); err != nil {
		return nil, fmt.Errorf("app %d open bulk: %w", id, err)
	}
	extent := make([]byte, fleetBulkExtent*abi.PageSize)
	fill := func(fd int, owner uint32, extents int) error {
		for e := 0; e < extents; e++ {
			for k := 0; k < fleetBulkExtent; k++ {
				stampPage(extent[k*abi.PageSize:(k+1)*abi.PageSize], owner, uint32(e*fleetBulkExtent+k), 0)
			}
			if _, err := p.Pwrite(fd, extent, int64(e)*int64(len(extent))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(a.ws, a.id, fleetWSPages/fleetBulkExtent); err != nil {
		return nil, fmt.Errorf("app %d fill ws: %w", id, err)
	}
	if err := fill(a.bulk, a.bulkOwner(), fleetBulkFile); err != nil {
		return nil, fmt.Errorf("app %d fill bulk: %w", id, err)
	}
	a.chainLen = int64(abi.PageSize + rng.Intn(2*abi.PageSize))
	chain := make([]byte, a.chainLen)
	stampPage(chain[:abi.PageSize], a.chainOwner(), 0, 0)
	cfd, err := p.Open("chain.dat", abi.OWrOnly|abi.OCreat, 0o600)
	if err == nil {
		_, err = p.Write(cfd, chain)
	}
	if err == nil {
		err = p.Close(cfd)
	}
	if err != nil {
		return nil, fmt.Errorf("app %d chain file: %w", id, err)
	}
	if _, err := p.Fsync(a.ws); err != nil {
		return nil, fmt.Errorf("app %d fsync: %w", id, err)
	}
	if a.sock, err = p.Socket(netstack.AFInet, netstack.SockStream, 0); err != nil {
		return nil, fmt.Errorf("app %d socket: %w", id, err)
	}
	if err := p.Connect(a.sock, fleetEchoAddr); err != nil {
		return nil, fmt.Errorf("app %d connect: %w", id, err)
	}
	if a.bfd, err = p.OpenBinder(); err != nil {
		return nil, fmt.Errorf("app %d binder: %w", id, err)
	}
	return a, nil
}

// genFleetOps draws perApp calls for each app, in its profile's exact
// proportions and seeded order. The apps take turns round-robin, each
// turn a burst of one to eight calls.
func genFleetOps(rng *rand.Rand, apps []*fleetApp, perApp int) []fleetOp {
	lists := make([][]fleetOp, len(apps))
	for i, a := range apps {
		ioctl, ui := a.profile.IoctlFrac, a.profile.UIIoctlFrac
		kinds := []opKind{opDraw, opBinder}
		weights := []float64{ioctl * ui, ioctl * (1 - ui)}
		for _, w := range fleetSplit {
			kinds = append(kinds, w.op)
			weights = append(weights, (1-ioctl)*float64(w.weight)/100)
		}
		for _, k := range mix(rng, perApp, weights) {
			op := fleetOp{app: a, kind: kinds[k]}
			switch op.kind {
			case opRead4k, opWrite4k:
				op.arg = int32(rng.Intn(fleetWSPages))
			case opPread64k, opPwrite64k:
				op.arg = int32(rng.Intn(fleetBulkFile))
			case opEcho:
				op.arg = int32(rng.Intn(32))
			}
			lists[i] = append(lists[i], op)
		}
	}
	ops := make([]fleetOp, 0, perApp*len(apps))
	for left := len(apps); left > 0; {
		left = 0
		for i := range lists {
			b := min(1+rng.Intn(8), len(lists[i]))
			for j := 0; j < b; j++ {
				op := lists[i][j]
				op.last = j == b-1
				ops = append(ops, op)
			}
			lists[i] = lists[i][b:]
			if len(lists[i]) > 0 {
				left++
			}
		}
	}
	return ops
}

var fixRequest = []byte("fix?")

// driveFleet runs ops in order, recording each burst's simulated time
// spent in non-UI calls as one latency sample.
func driveFleet(rec *recorder, res *roundResult, b *fleetBuffers, ops []fleetOp) {
	var burst time.Duration
	sampled := false
	for _, op := range ops {
		d := runFleetOp(rec, res, b, op)
		if op.kind != opDraw {
			burst += d
			sampled = true
		}
		if op.last {
			if sampled {
				rec.lat = append(rec.lat, burst)
			}
			burst, sampled = 0, false
		}
	}
}

// runFleetOp issues one call, checks its output and returns its
// simulated latency.
func runFleetOp(rec *recorder, res *roundResult, b *fleetBuffers, op fleetOp) time.Duration {
	a, p := op.app, op.app.p
	m := rec.start()
	switch op.kind {
	case opDraw:
		if err := p.Draw(a.bfd); err != nil {
			res.fail("app %d draw: %v", a.id, err)
		}
	case opBinder:
		reply, err := p.BinderCall(a.bfd, "location", android.CodeGetLocation, fixRequest)
		if err != nil || string(reply) != locationFix {
			res.fail("app %d binder: %q, %v", a.id, reply, err)
		}
	case opRead4k:
		n, err := p.PreadInto(a.ws, b.in[:abi.PageSize], int64(op.arg)*abi.PageSize)
		if err != nil || !pageIs(b.in[:n], a.id, uint32(op.arg), a.wsVer[op.arg]) {
			res.fail("app %d read4k page %d: %v, or stale bytes", a.id, op.arg, err)
		}
	case opWrite4k:
		a.wsVer[op.arg]++
		stampPage(b.page, a.id, uint32(op.arg), a.wsVer[op.arg])
		if n, err := p.Pwrite(a.ws, b.page, int64(op.arg)*abi.PageSize); err != nil || n != abi.PageSize {
			res.fail("app %d write4k page %d: %d, %v", a.id, op.arg, n, err)
		}
	case opPread64k:
		n, err := p.PreadInto(a.bulk, b.in, int64(op.arg)*int64(len(b.in)))
		if err != nil || n != len(b.in) {
			res.fail("app %d pread64k extent %d: %d bytes, %v", a.id, op.arg, n, err)
			break
		}
		for k := 0; k < fleetBulkExtent; k++ {
			if !pageIs(b.in[k*abi.PageSize:(k+1)*abi.PageSize], a.bulkOwner(), uint32(int(op.arg)*fleetBulkExtent+k), a.bulkVer[op.arg]) {
				res.fail("app %d pread64k extent %d page %d: stale bytes", a.id, op.arg, k)
				break
			}
		}
	case opPwrite64k:
		a.bulkVer[op.arg]++
		for k := 0; k < fleetBulkExtent; k++ {
			stampPage(b.extent[k*abi.PageSize:(k+1)*abi.PageSize], a.bulkOwner(), uint32(int(op.arg)*fleetBulkExtent+k), a.bulkVer[op.arg])
		}
		if n, err := p.Pwrite(a.bulk, b.extent, int64(op.arg)*int64(len(b.extent))); err != nil || n != len(b.extent) {
			res.fail("app %d pwrite64k extent %d: %d, %v", a.id, op.arg, n, err)
		}
	case opChain:
		out := p.Chain(
			anception.ChainCall{Args: kernel.Args{Nr: abi.SysOpen, Path: "chain.dat", Flags: abi.ORdOnly}, FDFrom: -1},
			anception.ChainCall{Args: kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
			anception.ChainCall{Args: kernel.Args{Nr: abi.SysPread64, Buf: b.chainBuf}, FDFrom: 0},
			anception.ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
		)
		failed := -1
		for j, r := range out {
			if !r.Ok() {
				failed = j
				break
			}
		}
		if failed >= 0 {
			res.fail("app %d chain link %d: %v", a.id, failed, out[failed].Err)
			break
		}
		page := out[2].Data
		if page == nil {
			page = b.chainBuf[:out[2].Ret]
		}
		if out[1].Ret != a.chainLen || !pageIs(page, a.chainOwner(), 0, 0) {
			res.fail("app %d chain: fstat size %d (want %d) or page bytes wrong", a.id, out[1].Ret, a.chainLen)
		}
	case opEcho:
		msg := b.echoes[op.arg]
		if _, err := p.Send(a.sock, msg); err != nil {
			res.fail("app %d echo send: %v", a.id, err)
			break
		}
		if n, err := p.RecvInto(a.sock, b.in[:len(msg)]); err != nil || !bytes.Equal(b.in[:n], msg) {
			res.fail("app %d echo recv: %v, or wrong bytes", a.id, err)
		}
	case opStat:
		if size, err := p.Stat("ws.dat"); err != nil || size != fleetWSPages*abi.PageSize {
			res.fail("app %d stat: %d, %v", a.id, size, err)
		}
	case opFsync:
		if _, err := p.Fsync(a.ws); err != nil {
			res.fail("app %d fsync: %v", a.id, err)
		}
	}
	return rec.stop(m, op.kind, false)
}
