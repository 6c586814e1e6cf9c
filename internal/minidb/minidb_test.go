package minidb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"anception/internal/abi"
	"anception/internal/vfs"
)

// fsIO adapts a raw vfs.FileSystem to FileIO for unit tests (the
// integration tests use anception.Proc instead).
type fsIO struct {
	fs   *vfs.FileSystem
	fds  map[int]*vfs.File
	next int
}

func newFSIO(t testing.TB) *fsIO {
	t.Helper()
	fs := vfs.New()
	root := abi.Cred{UID: abi.UIDRoot}
	if err := fs.Mkdir(root, "/data", 0o777); err != nil {
		t.Fatal(err)
	}
	return &fsIO{fs: fs, fds: make(map[int]*vfs.File), next: 3}
}

func (f *fsIO) Open(path string, flags abi.OpenFlag, mode abi.FileMode) (int, error) {
	file, err := f.fs.Open(abi.Cred{UID: abi.UIDRoot}, path, flags, mode)
	if err != nil {
		return -1, err
	}
	fd := f.next
	f.next++
	f.fds[fd] = file
	return fd, nil
}

func (f *fsIO) Close(fd int) error { delete(f.fds, fd); return nil }

func (f *fsIO) Pread(fd int, n int, off int64) ([]byte, error) {
	buf := make([]byte, n)
	m, err := f.fds[fd].ReadAt(buf, off)
	if err != nil {
		return nil, err
	}
	return buf[:m], nil
}

func (f *fsIO) Pwrite(fd int, data []byte, off int64) (int, error) {
	return f.fds[fd].WriteAt(data, off)
}

func (f *fsIO) Fsync(fd int) (int, error) { return f.fds[fd].Sync(), nil }

func (f *fsIO) Ftruncate(fd int, size int64) error { return f.fds[fd].Truncate(size) }

func (f *fsIO) Unlink(path string) error {
	return f.fs.Unlink(abi.Cred{UID: abi.UIDRoot}, path)
}

func (f *fsIO) Stat(path string) (int64, error) {
	st, err := f.fs.StatPath(abi.Cred{UID: abi.UIDRoot}, path)
	if err != nil {
		return 0, err
	}
	return st.Size, nil
}

func openTestDB(t *testing.T) (*DB, *fsIO) {
	t.Helper()
	io := newFSIO(t)
	db, err := Open(io, "/data/test.db")
	if err != nil {
		t.Fatal(err)
	}
	return db, io
}

func TestInsertGetRoundTrip(t *testing.T) {
	db, _ := openTestDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(42, []byte("row-42")); err != nil {
		t.Fatal(err)
	}
	if got, err := tx.Get(42); err != nil || string(got) != "row-42" {
		t.Fatalf("in-tx get = %q, %v", got, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get(42); err != nil || string(got) != "row-42" {
		t.Fatalf("committed get = %q, %v", got, err)
	}
	if _, err := db.Get(7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestOverwrite(t *testing.T) {
	db, _ := openTestDB(t)
	tx, _ := db.Begin()
	if err := tx.Insert(1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(1, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Get(1); string(got) != "new" {
		t.Fatalf("got %q", got)
	}
	if n, _ := db.Count(0, 100); n != 1 {
		t.Fatalf("count = %d", n)
	}
}

func TestDelete(t *testing.T) {
	db, _ := openTestDB(t)
	tx, _ := db.Begin()
	for i := int64(0); i < 10; i++ {
		if err := tx.Insert(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key still present: %v", err)
	}
	if n, _ := db.Count(0, 100); n != 9 {
		t.Fatalf("count = %d", n)
	}
}

func TestManyRowsSplitPages(t *testing.T) {
	db, _ := openTestDB(t)
	const rows = 5000
	tx, _ := db.Begin()
	for i := int64(0); i < rows; i++ {
		val := []byte(fmt.Sprintf("value-%06d-abcdefghijklmnop", i))
		if err := tx.Insert(i, val); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Pages() < 10 {
		t.Fatalf("pages = %d; the tree never split", db.Pages())
	}
	// Spot check.
	for _, k := range []int64{0, 1, 999, 2500, rows - 1} {
		want := fmt.Sprintf("value-%06d-abcdefghijklmnop", k)
		got, err := db.Get(k)
		if err != nil || string(got) != want {
			t.Fatalf("Get(%d) = %q, %v", k, got, err)
		}
	}
	if n, _ := db.Count(0, rows); n != rows {
		t.Fatalf("count = %d, want %d", n, rows)
	}
}

// TestScanSortedProperty: iteration is always in ascending key order and
// returns exactly the inserted set, for random insertion orders.
func TestScanSortedProperty(t *testing.T) {
	f := func(keysRaw []int16) bool {
		db, _ := openTestDB(t)
		tx, _ := db.Begin()
		want := make(map[int64]bool)
		for _, k := range keysRaw {
			key := int64(k)
			if err := tx.Insert(key, []byte("v")); err != nil {
				return false
			}
			want[key] = true
		}
		if err := tx.Commit(); err != nil {
			return false
		}
		var got []int64
		if err := db.Scan(-40000, 40000, func(k int64, _ []byte) bool {
			got = append(got, k)
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i, k := range got {
			if !want[k] {
				return false
			}
			if i > 0 && got[i-1] >= k {
				return false // out of order or duplicate
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScanRangeBounds(t *testing.T) {
	db, _ := openTestDB(t)
	tx, _ := db.Begin()
	for i := int64(0); i < 100; i += 2 {
		if err := tx.Insert(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var keys []int64
	if err := db.Scan(10, 20, func(k int64, _ []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestRollbackDiscardsChanges(t *testing.T) {
	db, _ := openTestDB(t)
	tx, _ := db.Begin()
	if err := tx.Insert(1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := db.Begin()
	if err := tx2.Insert(2, []byte("discard")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert(1, []byte("mutated")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}

	if got, err := db.Get(1); err != nil || string(got) != "keep" {
		t.Fatalf("after rollback: %q, %v", got, err)
	}
	if _, err := db.Get(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rolled-back insert visible: %v", err)
	}
}

func TestCrashRecovery(t *testing.T) {
	io := newFSIO(t)
	db, err := Open(io, "/data/crash.db")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	if err := tx.Insert(1, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Second transaction: force dirty pages to disk mid-transaction (as a
	// page-cache eviction would), then crash before commit.
	tx2, _ := db.Begin()
	for i := int64(100); i < 400; i++ {
		if err := tx2.Insert(i, bytes.Repeat([]byte("z"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.pager.flush(); err != nil { // partial write hits the disk
		t.Fatal(err)
	}
	db.DropCaches() // crash

	db2, err := Open(io, "/data/crash.db")
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if got, err := db2.Get(1); err != nil || string(got) != "committed" {
		t.Fatalf("committed row lost: %q, %v", got, err)
	}
	for i := int64(100); i < 400; i++ {
		if _, err := db2.Get(i); !errors.Is(err, ErrNotFound) {
			t.Fatalf("uncommitted row %d survived the crash: %v", i, err)
		}
	}
}

func TestReopenPersistedData(t *testing.T) {
	io := newFSIO(t)
	db, err := Open(io, "/data/persist.db")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	for i := int64(0); i < 500; i++ {
		if err := tx.Insert(i, []byte(fmt.Sprintf("row %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(io, "/data/persist.db")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 250, 499} {
		if got, err := db2.Get(k); err != nil || string(got) != fmt.Sprintf("row %d", k) {
			t.Fatalf("Get(%d) after reopen = %q, %v", k, got, err)
		}
	}
}

func TestTransactionDiscipline(t *testing.T) {
	db, _ := openTestDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrTxActive) {
		t.Fatalf("second begin: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(1, nil); !errors.Is(err, ErrNoTx) {
		t.Fatalf("insert after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNoTx) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestOversizedValueRejected(t *testing.T) {
	db, _ := openTestDB(t)
	tx, _ := db.Begin()
	if err := tx.Insert(1, make([]byte, MaxValueLen+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeKeys(t *testing.T) {
	db, _ := openTestDB(t)
	tx, _ := db.Begin()
	for _, k := range []int64{-5, -1, 0, 1, 5} {
		if err := tx.Insert(k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	_ = db.Scan(-10, 10, func(k int64, _ []byte) bool { got = append(got, k); return true })
	want := []int64{-5, -1, 0, 1, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v", got)
		}
	}
}

func TestOpenGarbageFile(t *testing.T) {
	io := newFSIO(t)
	root := abi.Cred{UID: abi.UIDRoot}
	if err := io.fs.WriteFile(root, "/data/garbage.db", []byte("not a database at all"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(io, "/data/garbage.db"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestInsertGetDeleteProperty exercises the tree with random operations
// against a map oracle.
func TestInsertGetDeleteProperty(t *testing.T) {
	db, _ := openTestDB(t)
	oracle := make(map[int64][]byte)
	tx, _ := db.Begin()
	f := func(key int16, val []byte, del bool) bool {
		k := int64(key % 512)
		if len(val) > 64 {
			val = val[:64]
		}
		if del {
			_, inOracle := oracle[k]
			err := tx.Delete(k)
			if inOracle != (err == nil) {
				return false
			}
			delete(oracle, k)
		} else {
			if err := tx.Insert(k, val); err != nil {
				return false
			}
			oracle[k] = append([]byte(nil), val...)
		}
		// Verify a sample of the oracle.
		for ok := range oracle {
			got, err := tx.Get(ok)
			if err != nil || !bytes.Equal(got, oracle[ok]) {
				return false
			}
			break
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for k, v := range oracle {
		got, err := db.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("final check Get(%d) = %q, %v (want %q)", k, got, err, v)
		}
	}
}

func TestCloseRollsBackOpenTransaction(t *testing.T) {
	io := newFSIO(t)
	db, err := Open(io, "/data/close.db")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	if err := tx.Insert(1, []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(io, "/data/close.db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted row visible after close: %v", err)
	}
}

func TestGetDeleteOutsideTx(t *testing.T) {
	db, _ := openTestDB(t)
	tx, _ := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(1); !errors.Is(err, ErrNoTx) {
		t.Fatalf("get on finished tx: %v", err)
	}
	if err := tx.Delete(1); !errors.Is(err, ErrNoTx) {
		t.Fatalf("delete on finished tx: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrNoTx) {
		t.Fatalf("rollback on finished tx: %v", err)
	}
}

func TestDeepTreeInteriorSplits(t *testing.T) {
	db, _ := openTestDB(t)
	// Large values force frequent leaf splits; enough rows force interior
	// splits and a tree of height >= 3.
	const rows = 3000
	val := bytes.Repeat([]byte("V"), 900)
	tx, _ := db.Begin()
	// Insert in descending order to exercise the left-edge insert path.
	for i := rows - 1; i >= 0; i-- {
		if err := tx.Insert(int64(i), val); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Pages() < 700 {
		t.Fatalf("pages = %d; expected a deep tree", db.Pages())
	}
	for _, k := range []int64{0, 1, 1499, rows - 1} {
		got, err := db.Get(k)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("Get(%d): %v", k, err)
		}
	}
	if n, _ := db.Count(0, rows); n != rows {
		t.Fatalf("count = %d", n)
	}
	// Interleave deletes and re-inserts across the deep tree.
	tx2, _ := db.Begin()
	for i := int64(0); i < rows; i += 7 {
		if err := tx2.Delete(i); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(7); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key found")
	}
	if _, err := db.Get(8); err != nil {
		t.Fatal("kept key lost")
	}
}

func TestScanEarlyStop(t *testing.T) {
	db, _ := openTestDB(t)
	tx, _ := db.Begin()
	for i := int64(0); i < 50; i++ {
		if err := tx.Insert(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	visited := 0
	if err := db.Scan(0, 49, func(k int64, _ []byte) bool {
		visited++
		return visited < 5
	}); err != nil {
		t.Fatal(err)
	}
	if visited != 5 {
		t.Fatalf("visited = %d, want early stop at 5", visited)
	}
}

// TestSplitUnevenCells: a leaf whose small cells sort before its large
// ones cannot be cut at the middle cell without one half overflowing a
// page; the split must find a cut that fits instead of failing.
func TestSplitUnevenCells(t *testing.T) {
	for _, tc := range []struct {
		name  string
		small []int64 // keys with empty values
		large []int64 // keys with vlen-byte values, inserted in order
		vlen  int
	}{
		{"right half overflows", []int64{0, 1, 2, 3, 4, 5}, []int64{10, 11, 12, 13, 14, 15, 16}, 600},
		{"left half overflows", []int64{20, 21, 22, 23}, []int64{0, 1, 2, 3}, 1020},
	} {
		db, _ := openTestDB(t)
		tx, _ := db.Begin()
		want := make(map[int64][]byte)
		for _, k := range tc.small {
			if err := tx.Insert(k, nil); err != nil {
				t.Fatal(err)
			}
			want[k] = nil
		}
		for _, k := range tc.large {
			v := bytes.Repeat([]byte{byte(k)}, tc.vlen)
			if err := tx.Insert(k, v); err != nil {
				t.Fatalf("%s: insert %d: %v", tc.name, k, err)
			}
			want[k] = v
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		checkContents(t, db, want)
	}
}

// faultIO fails chosen calls with EHOSTDOWN, as the supervisor's fault
// injector fails a redirected call.
type faultIO struct {
	*fsIO
	failHeaderRead bool // the next read of page 0 fails
	failFsync      bool // every fsync fails
}

func (f *faultIO) Pread(fd int, n int, off int64) ([]byte, error) {
	if f.failHeaderRead && n == PageSize && off == 0 {
		f.failHeaderRead = false
		return nil, abi.EHOSTDOWN
	}
	return f.fsIO.Pread(fd, n, off)
}

func (f *faultIO) Fsync(fd int) (int, error) {
	if f.failFsync {
		return 0, abi.EHOSTDOWN
	}
	return f.fsIO.Fsync(fd)
}

// commitRows commits rows [from, to) with 100-byte values and records
// each in want.
func commitRows(t *testing.T, db *DB, from, to int64, want map[int64][]byte) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := from; k < to; k++ {
		v := bytes.Repeat([]byte{byte(k)}, 100)
		if err := tx.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitHeaderReadFailure: after a reopen page 0 is not cached, so the
// header update of a page split reads it first. When that read fails the
// insert must fail, not commit a page the header does not count.
func TestSplitHeaderReadFailure(t *testing.T) {
	io := &faultIO{fsIO: newFSIO(t)}
	const path = "/data/fault.db"
	db, err := Open(io, path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]byte)
	commitRows(t, db, 0, 300, want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err = Open(io, path); err != nil {
		t.Fatal(err)
	}
	io.failHeaderRead = true
	tx, _ := db.Begin()
	var insertErr error
	for k := int64(1000); k < 1100 && insertErr == nil; k++ {
		insertErr = tx.Insert(k, bytes.Repeat([]byte{1}, 100))
	}
	if !errors.Is(insertErr, abi.EHOSTDOWN) {
		t.Fatalf("insert across a split with the header read failing: %v, want EHOSTDOWN", insertErr)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	commitRows(t, db, 2000, 2100, want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err = Open(io, path); err != nil {
		t.Fatal(err)
	}
	checkContents(t, db, want)
}

// TestRecoveryFsyncFailureClosesFiles: a failed fsync while replaying the
// journal must not leak the journal or database descriptor, and the
// journal must survive for the next open to replay.
func TestRecoveryFsyncFailureClosesFiles(t *testing.T) {
	io := &faultIO{fsIO: newFSIO(t)}
	const path = "/data/recover.db"
	db, err := Open(io, path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]byte)
	commitRows(t, db, 0, 300, want)
	tx, _ := db.Begin()
	for k := int64(0); k < 600; k++ {
		if err := tx.Insert(k, []byte("uncommitted")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.pager.flush(); err != nil {
		t.Fatal(err)
	}
	db.DropCaches() // crash with the journal on disk
	open := len(io.fds)

	io.failFsync = true
	if _, err := Open(io, path); !errors.Is(err, abi.EHOSTDOWN) {
		t.Fatalf("recovery with fsync failing: %v, want EHOSTDOWN", err)
	}
	if leaked := len(io.fds) - open; leaked != 0 {
		t.Fatalf("failed recovery leaked %d descriptors", leaked)
	}

	io.failFsync = false
	if db, err = Open(io, path); err != nil {
		t.Fatal(err)
	}
	checkContents(t, db, want)
}

// TestGetAllocs: a point read allocates only the copy it returns.
func TestGetAllocs(t *testing.T) {
	db, _ := openTestDB(t)
	commitRows(t, db, 0, 2000, make(map[int64][]byte))
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.Get(1234); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Get allocates %.1f objects, want at most 1", allocs)
	}
}

// TestInsertAllocs: an insert into a leaf the transaction has already
// journaled, that does not split it, allocates nothing.
func TestInsertAllocs(t *testing.T) {
	db, _ := openTestDB(t)
	commitRows(t, db, 0, 2000, make(map[int64][]byte))
	tx, _ := db.Begin()
	// Overwriting key 0 journals the leftmost leaf, which the ascending
	// inserts left half full; the new negative keys all land in it.
	key, val := int64(0), bytes.Repeat([]byte{1}, 100)
	if err := tx.Insert(key, val); err != nil {
		t.Fatal(err)
	}
	pages := db.Pages()
	allocs := testing.AllocsPerRun(20, func() {
		key--
		if err := tx.Insert(key, val[:8]); err != nil {
			t.Fatal(err)
		}
	})
	if db.Pages() != pages {
		t.Fatalf("inserts split a page (%d -> %d pages)", pages, db.Pages())
	}
	if allocs != 0 {
		t.Fatalf("Insert allocates %.1f objects, want 0", allocs)
	}
}
