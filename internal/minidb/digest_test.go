package minidb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"testing"

	"anception/internal/abi"
)

// ioDigest wraps a FileIO and folds every call into one SHA-256 stream:
// the operation, the path, the offset and length, and the bytes of every
// Pwrite. Two runs of one op sequence give the same sum only if they
// issue the same I/O, byte for byte, in the same order.
type ioDigest struct {
	FileIO
	paths map[int]string
	h     hash.Hash
}

func newIODigest(io FileIO) *ioDigest {
	return &ioDigest{FileIO: io, paths: make(map[int]string), h: sha256.New()}
}

func (d *ioDigest) note(op, path string, off int64, n int) {
	fmt.Fprintf(d.h, "%s %s %d %d\n", op, path, off, n)
}

func (d *ioDigest) Open(path string, flags abi.OpenFlag, mode abi.FileMode) (int, error) {
	fd, err := d.FileIO.Open(path, flags, mode)
	d.note("open", path, int64(flags), int(mode))
	d.paths[fd] = path
	return fd, err
}

func (d *ioDigest) Close(fd int) error {
	d.note("close", d.paths[fd], 0, 0)
	return d.FileIO.Close(fd)
}

func (d *ioDigest) Pread(fd int, n int, off int64) ([]byte, error) {
	buf, err := d.FileIO.Pread(fd, n, off)
	d.note("pread", d.paths[fd], off, len(buf))
	return buf, err
}

func (d *ioDigest) Pwrite(fd int, data []byte, off int64) (int, error) {
	d.note("pwrite", d.paths[fd], off, len(data))
	d.h.Write(data)
	return d.FileIO.Pwrite(fd, data, off)
}

func (d *ioDigest) Fsync(fd int) (int, error) {
	d.note("fsync", d.paths[fd], 0, 0)
	return d.FileIO.Fsync(fd)
}

func (d *ioDigest) Ftruncate(fd int, size int64) error {
	d.note("ftruncate", d.paths[fd], size, 0)
	return d.FileIO.Ftruncate(fd, size)
}

func (d *ioDigest) Unlink(path string) error {
	d.note("unlink", path, 0, 0)
	return d.FileIO.Unlink(path)
}

func (d *ioDigest) Stat(path string) (int64, error) {
	size, err := d.FileIO.Stat(path)
	d.note("stat", path, size, 0)
	return size, err
}

func (d *ioDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// writeStreamDigest is the SHA-256 of the I/O stream TestWriteStreamDigest
// drives. It pins the page format, the split points and the journal
// layout: a change to any of them changes the bytes the simulated disk
// sees, and with them simulated time.
const writeStreamDigest = "99daa40f427e83d8e9f981d8a0e8424c2257ec4735738422bb94aaf417345626"

// TestWriteStreamDigest runs a fixed-seed mix of inserts, overwrites that
// grow and shrink values, deletes, gets, commits, rollbacks, a crash and
// a close with a transaction open, over a tree deep enough to split
// interior pages, and checks the I/O it issued against a pinned digest.
func TestWriteStreamDigest(t *testing.T) {
	d := newIODigest(newFSIO(t))
	const path = "/data/digest.db"
	db, err := Open(d, path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	value := func() []byte {
		n := rng.Intn(160)
		if rng.Intn(16) == 0 {
			n = rng.Intn(MaxValueLen + 1)
		}
		v := make([]byte, n)
		rng.Read(v)
		return v
	}

	committed := make(map[int64][]byte)
	for txn := 0; txn < 20; txn++ {
		model := make(map[int64][]byte, len(committed))
		for k, v := range committed {
			model[k] = v
		}
		live := make([]int64, 0, len(model))
		for k := range model {
			live = append(live, k)
		}
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
		pick := func() (int64, bool) {
			if len(live) == 0 {
				return 0, false
			}
			return live[rng.Intn(len(live))], true
		}

		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(20); {
			case r < 9: // insert, usually a new key
				k := rng.Int63n(1 << 20)
				v := value()
				if err := tx.Insert(k, v); err != nil {
					t.Fatalf("tx %d op %d: insert %d: %v", txn, op, k, err)
				}
				if _, ok := model[k]; !ok {
					live = append(live, k)
				}
				model[k] = v
			case r < 13: // overwrite a live key; the value grows or shrinks
				k, ok := pick()
				if !ok {
					continue
				}
				v := value()
				if err := tx.Insert(k, v); err != nil {
					t.Fatalf("tx %d op %d: overwrite %d: %v", txn, op, k, err)
				}
				model[k] = v
			case r < 15: // delete a live key, or a missing one
				k, ok := pick()
				if !ok || rng.Intn(8) == 0 {
					k = -1 - rng.Int63n(100)
				}
				err := tx.Delete(k)
				if _, inModel := model[k]; inModel != (err == nil) {
					t.Fatalf("tx %d op %d: delete %d: %v", txn, op, k, err)
				}
				delete(model, k)
			default: // get
				k, ok := pick()
				if !ok || rng.Intn(8) == 0 {
					k = rng.Int63n(1 << 20)
				}
				got, err := tx.Get(k)
				want, inModel := model[k]
				if inModel != (err == nil) || !bytes.Equal(got, want) {
					t.Fatalf("tx %d op %d: get %d = %d bytes, %v", txn, op, k, len(got), err)
				}
			}
		}

		switch txn % 10 {
		case 3, 8: // roll back
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		case 5: // crash with pages flushed mid-transaction, then recover
			if err := db.pager.flush(); err != nil {
				t.Fatal(err)
			}
			db.DropCaches()
			if db, err = Open(d, path); err != nil {
				t.Fatal(err)
			}
		case 9: // close with the transaction open, then reopen
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(d, path); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			committed = model
		}
	}

	if got := d.sum(); got != writeStreamDigest {
		t.Errorf("I/O stream digest = %s, want %s", got, writeStreamDigest)
	}
	checkContents(t, db, committed)
	if h := treeHeight(t, db); h < 3 {
		t.Fatalf("tree height %d over %d pages: interior pages never split", h, db.Pages())
	}
}

// checkContents verifies db holds exactly want, by point reads and by one
// ordered scan.
func checkContents(t *testing.T, db *DB, want map[int64][]byte) {
	t.Helper()
	for k, v := range want {
		got, err := db.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%d) = %d bytes, %v; want %d bytes", k, len(got), err, len(v))
		}
	}
	n, prev := 0, int64(0)
	err := db.Scan(-1<<62, 1<<62, func(k int64, v []byte) bool {
		if n > 0 && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		if !bytes.Equal(v, want[k]) {
			t.Fatalf("scan %d: %d bytes, want %d", k, len(v), len(want[k]))
		}
		n, prev = n+1, k
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("scan saw %d rows, want %d", n, len(want))
	}
}

// treeHeight counts the levels on the leftmost root-to-leaf path.
func treeHeight(t *testing.T, db *DB) int {
	t.Helper()
	no, h := db.pager.rootPage, 1
	for {
		buf, err := db.pager.page(no)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] == pageLeaf {
			return h
		}
		no = binary.LittleEndian.Uint32(buf[3:]) // rightmost
		if binary.LittleEndian.Uint16(buf[1:]) > 0 {
			no = binary.LittleEndian.Uint32(buf[7+8:]) // first cell's child
		}
		h++
	}
}
