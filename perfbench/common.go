package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
)

// Every device boots the adaptive data plane with tracing off, as
// evaluate does (sim.Trace grows without bound), and with an hour call
// deadline so no modelled timeout can fire inside a measurement.
func deviceOptions() anception.Options {
	return anception.Options{
		Mode:         anception.ModeAnception,
		AutoTune:     true,
		CallDeadline: time.Hour,
		DisableTrace: true,
	}
}

func launchApp(d *anception.Device, pkg string) (*anception.Proc, error) {
	app, err := d.InstallApp(android.AppSpec{Package: pkg})
	if err != nil {
		return nil, fmt.Errorf("install %s: %w", pkg, err)
	}
	p, err := d.Launch(app)
	if err != nil {
		return nil, fmt.Errorf("launch %s: %w", pkg, err)
	}
	return p, nil
}

// locationFix is the reply of the CVM-resident location service.
const locationFix = "fix:42.2808,-83.7430"

// A page's contents are a 16-byte stamp — owner, page number, version —
// repeated across the page, so a read can be checked against the last
// write of that page byte for byte.
func stampPage(buf []byte, owner, page uint32, version uint64) {
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:], owner)
	binary.LittleEndian.PutUint32(rec[4:], page)
	binary.LittleEndian.PutUint64(rec[8:], version)
	for off := 0; off < len(buf); off += len(rec) {
		copy(buf[off:], rec[:])
	}
}

func pageIs(buf []byte, owner, page uint32, version uint64) bool {
	if len(buf) != abi.PageSize {
		return false
	}
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:], owner)
	binary.LittleEndian.PutUint32(rec[4:], page)
	binary.LittleEndian.PutUint64(rec[8:], version)
	for off := 0; off < len(buf); off += len(rec) {
		if [16]byte(buf[off:off+16]) != rec {
			return false
		}
	}
	return true
}

// tableI holds the rows of the paper's Table I that
// internal/anception/tablei_test.go pins, in the order probeTableI
// measures them.
var tableI = []time.Duration{
	762 * time.Nanosecond,    // getpid
	384450 * time.Nanosecond, // 4 KiB write
	305030 * time.Nanosecond, // 4 KiB read
	31 * time.Millisecond,    // binder, 128 B
	31300 * time.Microsecond, // binder, 256 B
}

// probeTableI measures the Table I rows the way the pinned test does —
// one call each, from a fresh app on a fresh AutoTune device, over the
// synchronous uncached channel — and returns the largest relative error
// in percent. It runs on a device of its own so that the workload's
// devices start without its history.
func probeTableI() (float64, error) {
	d, err := anception.NewDevice(deviceOptions())
	if err != nil {
		return 0, fmt.Errorf("boot table I device: %w", err)
	}
	defer d.Close()
	d.Layer.SetPolicyOverride(&anception.PolicyOverride{ForceSyncUncached: true})
	p, err := launchApp(d, "com.perfbench.tablei")
	if err != nil {
		return 0, err
	}

	measure := func(op func() error) (time.Duration, error) {
		before := d.Clock.Now()
		err := op()
		return d.Clock.Now() - before, err
	}
	got := make([]time.Duration, len(tableI))
	got[0], _ = measure(func() error { p.Getpid(); return nil })
	fd, err := p.Open("tablei.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		return 0, fmt.Errorf("table I open: %w", err)
	}
	page := make([]byte, abi.PageSize)
	if got[1], err = measure(func() error { _, err := p.Write(fd, page); return err }); err != nil {
		return 0, fmt.Errorf("table I write: %w", err)
	}
	if _, err := p.Lseek(fd, 0, abi.SeekSet); err != nil {
		return 0, fmt.Errorf("table I lseek: %w", err)
	}
	if got[2], err = measure(func() error { _, err := p.Read(fd, abi.PageSize); return err }); err != nil {
		return 0, fmt.Errorf("table I read: %w", err)
	}
	bfd, err := p.OpenBinder()
	if err != nil {
		return 0, fmt.Errorf("table I binder: %w", err)
	}
	for i, size := range []int{128, 256} {
		got[3+i], err = measure(func() error {
			reply, err := p.BinderCall(bfd, "location", android.CodeGetLocation, make([]byte, size))
			if err == nil && string(reply) != locationFix {
				err = fmt.Errorf("reply %q", reply)
			}
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("table I binder %d B: %w", size, err)
		}
	}
	worst := 0.0
	for i, want := range tableI {
		worst = math.Max(worst, 100*math.Abs(float64(got[i]-want))/float64(want))
	}
	return worst, nil
}

// mix returns n indexes into weights, each index appearing in
// proportion to its weight (largest remainder), in seeded order. Exact
// proportions keep the mix itself from varying between seeds; the seed
// only orders it.
func mix(rng *rand.Rand, n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rest := make([]int, len(weights))
	frac := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		counts[i] = int(exact)
		frac[i] = exact - float64(counts[i])
		rest[i] = i
		left -= counts[i]
	}
	sort.SliceStable(rest, func(a, b int) bool { return frac[rest[a]] > frac[rest[b]] })
	for i := 0; i < left; i++ {
		counts[rest[i]]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
