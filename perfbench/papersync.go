package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/netstack"
)

// paper-sync replays the Table I call set from one app and one driver,
// every call over the synchronous uncached channel
// (PolicyOverride{ForceSyncUncached}): the paper's own configuration.
// Marshal and chunk copies, world switches and synchronous proxy
// dispatch do the work and every fast path is bypassed, so a fast-path
// change should leave this workload unchanged.

const (
	syncFilePages = 256 // the read/write file, 1 MiB
	syncPaths     = 48  // files that stat and open/close name
	syncEchoAddr  = "echo.sync:80"
	syncOwner     = 1
)

// syncWeights is the call mix, in relative parts. Every other call has
// a fixed modelled cost, so the mix puts the median among the stats and
// the 99th percentile among the binder calls: path lookups have seeded
// depths and name lengths, and binder payloads are drawn from the
// 128–256 B range Table I spans, so both percentiles follow the inputs
// rather than reading one constant.
var syncWeights = [...]struct {
	op     opKind
	weight int
}{
	{opGetpid, 26}, {opStat, 34}, {opOpen, 8}, {opRead4k, 8},
	{opWrite4k, 8}, {opPread64k, 4}, {opEcho, 6}, {opBinder, 4},
}

// benchOp is one generated operation: its class and one argument (a
// page, path index or payload size).
type benchOp struct {
	kind opKind
	arg  int32
}

func runPaperSync(cfg roundConfig) (*roundResult, error) {
	res := &roundResult{}
	t0 := time.Now()
	d, err := anception.NewDevice(deviceOptions())
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	defer d.Close()
	if res.paperErrPct, err = probeTableI(); err != nil {
		return nil, err
	}
	d.Layer.SetPolicyOverride(&anception.PolicyOverride{ForceSyncUncached: true})
	d.RegisterRemote(syncEchoAddr, func(req []byte) []byte { return append([]byte(nil), req...) })
	p, err := launchApp(d, "com.perfbench.sync")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	// The data file, every page stamped at version 0.
	fd, err := p.Open("sync.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		return nil, fmt.Errorf("open data file: %w", err)
	}
	versions := make([]uint64, syncFilePages)
	extent := make([]byte, 16*abi.PageSize)
	for first := 0; first < syncFilePages; first += 16 {
		for i := 0; i < 16; i++ {
			stampPage(extent[i*abi.PageSize:(i+1)*abi.PageSize], syncOwner, uint32(first+i), 0)
		}
		if _, err := p.Pwrite(fd, extent, int64(first)*abi.PageSize); err != nil {
			return nil, fmt.Errorf("fill data file: %w", err)
		}
	}

	// Files at seeded depths, with seeded name lengths and sizes.
	paths, sizes, err := makePathSet(p, rng, syncPaths)
	if err != nil {
		return nil, err
	}
	sock, err := p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	if err := p.Connect(sock, syncEchoAddr); err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	bfd, err := p.OpenBinder()
	if err != nil {
		return nil, fmt.Errorf("open binder: %w", err)
	}
	pid := p.Getpid()

	ops := genSyncOps(rng, cfg.size(24000, 300))
	echoes := make([][]byte, 64)
	for i := range echoes {
		echoes[i] = make([]byte, 128)
		rng.Read(echoes[i])
	}
	binderPayload := make([]byte, 256)
	rng.Read(binderPayload)
	page := make([]byte, abi.PageSize)
	in := make([]byte, len(extent))
	res.setup = time.Since(t0)

	rec := newRecorder(d.Clock, 0, cfg.traced, cfg.epoch, cfg.spans, len(ops))
	win := openDeviceWindow(d)
	for i, op := range ops {
		m := rec.start()
		switch op.kind {
		case opGetpid:
			if got := p.Getpid(); got != pid {
				res.fail("getpid = %d, want %d", got, pid)
			}
		case opStat:
			size, err := p.Stat(paths[op.arg])
			if err != nil || size != sizes[op.arg] {
				res.fail("stat %s = %d, %v; want %d", paths[op.arg], size, err, sizes[op.arg])
			}
		case opOpen:
			ofd, err := p.Open(paths[op.arg], abi.ORdOnly, 0)
			if err == nil {
				err = p.Close(ofd)
			}
			if err != nil {
				res.fail("open/close %s: %v", paths[op.arg], err)
			}
		case opRead4k:
			n, err := p.PreadInto(fd, in[:abi.PageSize], int64(op.arg)*abi.PageSize)
			if err != nil || !pageIs(in[:n], syncOwner, uint32(op.arg), versions[op.arg]) {
				res.fail("read4k page %d: %v, or stale bytes", op.arg, err)
			}
		case opWrite4k:
			versions[op.arg]++
			stampPage(page, syncOwner, uint32(op.arg), versions[op.arg])
			if n, err := p.Pwrite(fd, page, int64(op.arg)*abi.PageSize); err != nil || n != abi.PageSize {
				res.fail("write4k page %d: %d, %v", op.arg, n, err)
			}
		case opPread64k:
			n, err := p.PreadInto(fd, in, int64(op.arg)*abi.PageSize)
			if err != nil || n != len(in) {
				res.fail("pread64k at page %d: %d bytes, %v", op.arg, n, err)
				break
			}
			for k := 0; k < 16; k++ {
				pg := int(op.arg) + k
				if !pageIs(in[k*abi.PageSize:(k+1)*abi.PageSize], syncOwner, uint32(pg), versions[pg]) {
					res.fail("pread64k page %d: stale bytes", pg)
				}
			}
		case opEcho:
			msg := echoes[i%len(echoes)]
			if _, err := p.Send(sock, msg); err != nil {
				res.fail("echo send: %v", err)
				break
			}
			if n, err := p.RecvInto(sock, in[:len(msg)]); err != nil || !bytes.Equal(in[:n], msg) {
				res.fail("echo recv: %v, or wrong bytes", err)
			}
		case opBinder:
			reply, err := p.BinderCall(bfd, "location", android.CodeGetLocation, binderPayload[:op.arg])
			if err != nil || string(reply) != locationFix {
				res.fail("binder: %q, %v", reply, err)
			}
		case opFsync:
			if _, err := p.Fsync(fd); err != nil {
				res.fail("fsync: %v", err)
			}
		}
		rec.stop(m, op.kind, true)
	}
	simElapsed := win.close(res, cfg.epoch)

	res.ops = len(ops)
	res.rec = rec
	res.simOpsPerSec = float64(len(ops)) / simElapsed.Seconds()
	for _, op := range ops {
		if op.kind == opPread64k {
			res.bulkOps++
		}
	}
	win.layers(res)
	d.Close()
	res.violations = checkIdentities("cvm", d)
	return res, nil
}

// genSyncOps draws n operations from the paper-sync mix, in exact
// proportion and seeded order. Every fsyncEvery-th write is followed by
// an fsync; the period is seeded.
func genSyncOps(rng *rand.Rand, n int) []benchOp {
	weights := make([]float64, len(syncWeights))
	for i, w := range syncWeights {
		weights[i] = float64(w.weight)
	}
	fsyncEvery := 12 + rng.Intn(9)
	ops := make([]benchOp, 0, n+n/8)
	writes := 0
	for _, k := range mix(rng, n, weights) {
		op := benchOp{kind: syncWeights[k].op}
		switch op.kind {
		case opStat, opOpen:
			op.arg = int32(rng.Intn(syncPaths))
		case opRead4k, opWrite4k:
			op.arg = int32(rng.Intn(syncFilePages))
		case opPread64k:
			op.arg = int32(16 * rng.Intn(syncFilePages/16))
		case opBinder:
			op.arg = int32(128 + rng.Intn(129))
		}
		ops = append(ops, op)
		if op.kind == opWrite4k {
			if writes++; writes%fsyncEvery == 0 {
				ops = append(ops, benchOp{kind: opFsync})
			}
		}
	}
	return ops
}

// makePathSet creates n files under directories of seeded depth (one to
// four components) and name length, each with a seeded size, and
// returns their paths and sizes.
func makePathSet(p *anception.Proc, rng *rand.Rand, n int) ([]string, []int64, error) {
	name := func() string {
		b := make([]byte, 3+rng.Intn(14))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	made := map[string]bool{}
	paths := make([]string, n)
	sizes := make([]int64, n)
	for i := range paths {
		var parts []string
		for depth := rng.Intn(4); depth > 0; depth-- {
			parts = append(parts, name())
			dir := strings.Join(parts, "/")
			if !made[dir] {
				if err := p.Mkdir(dir, 0o700); err != nil {
					return nil, nil, fmt.Errorf("mkdir %s: %w", dir, err)
				}
				made[dir] = true
			}
		}
		paths[i] = strings.Join(append(parts, fmt.Sprintf("%s-%d.dat", name(), i)), "/")
		sizes[i] = int64(rng.Intn(2 * abi.PageSize))
		fd, err := p.Open(paths[i], abi.OWrOnly|abi.OCreat, 0o600)
		if err != nil {
			return nil, nil, fmt.Errorf("create %s: %w", paths[i], err)
		}
		if sizes[i] > 0 {
			if _, err := p.Write(fd, make([]byte, sizes[i])); err != nil {
				return nil, nil, fmt.Errorf("fill %s: %w", paths[i], err)
			}
		}
		if err := p.Close(fd); err != nil {
			return nil, nil, fmt.Errorf("close %s: %w", paths[i], err)
		}
	}
	return paths, sizes, nil
}
