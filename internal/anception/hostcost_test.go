package anception

import (
	"testing"

	"anception/internal/abi"
)

// pread64KAllocs pins the host allocations of one 64 KiB uncached pread
// over the synchronous page channel. The guest reads straight into its
// reply frame, so the 64 KiB are allocated once on the way back; the rest
// are small per-call objects such as the request frame and decoded args.
const pread64KAllocs = 5

// TestPread64KSyncAllocs gates the host cost of the Table I bulk read
// path: a ForceSyncUncached device, one 64 KiB Pread into a caller-owned
// buffer, steady state.
func TestPread64KSyncAllocs(t *testing.T) {
	d := bootPolicyDevice(t, Options{AutoTune: true})
	d.Layer.SetPolicyOverride(&PolicyOverride{ForceSyncUncached: true})
	p := installAndLaunch(t, d, "com.hostcost.pread")
	fd := mustOpen(t, p, "bulk.dat", abi.ORdWr|abi.OCreat)
	buf := make([]byte, 64<<10)
	mustPwrite(t, p, fd, buf, 0)
	for i := 0; i < 10; i++ { // warm the channel frames
		if _, err := p.PreadInto(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := p.PreadInto(fd, buf, 0); err != nil || n != len(buf) {
			t.Fatalf("pread = %d, %v", n, err)
		}
	})
	if allocs != pread64KAllocs {
		t.Fatalf("64 KiB sync pread allocates %.2f objects, want %d", allocs, pread64KAllocs)
	}
}
