package minidb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// fuzzValue derives a value of n bytes from its key, so the model and the
// database agree on contents without the input spelling them out.
func fuzzValue(key int64, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(key) + byte(i)
	}
	return v
}

// FuzzBTreeOps decodes the input into a sequence of tree operations,
// applies each to the database and to a map model, and after every
// operation checks the page invariants and the key the operation touched.
// Each operation takes four bytes: an opcode, a 16-bit key and a length.
// Inputs stop after maxFuzzOps operations and bulk fills stop at
// maxFuzzRows rows, which keeps every run well inside the fuzzer's
// per-input deadline.
func FuzzBTreeOps(f *testing.F) {
	const maxFuzzOps, maxFuzzRows = 256, 4096
	op := func(code byte, key int16, n byte) []byte {
		return []byte{code, byte(key), byte(key >> 8), n}
	}
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(seq(op(0, 1, 10), op(0, 2, 20), op(2, 1, 0), op(1, 1, 0), op(2, 1, 0), op(3, 0, 0)))
	// Small cells before large ones: the middle cut overflows a page.
	f.Add(seq(op(0, 0, 0), op(0, 1, 0), op(0, 2, 0), op(0, 3, 0), op(0, 4, 0), op(0, 5, 0),
		op(0, 10, 150), op(0, 11, 150), op(0, 12, 150), op(0, 13, 150), op(0, 14, 150), op(0, 15, 150), op(0, 16, 150)))
	// Bulk fills deep enough to split interior pages, then overwrites,
	// deletes, a rollback, a crash and a reopen.
	f.Add(seq(op(5, 250, 255), op(3, 0, 0), op(5, 1, 200), op(0, 77, 255), op(1, 80, 0), op(4, 0, 0),
		op(0, 81, 3), op(6, 0, 1), op(0, 82, 0), op(6, 0, 0), op(7, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		io := newFSIO(t)
		const path = "/data/fuzz.db"
		db, err := Open(io, path)
		if err != nil {
			t.Fatal(err)
		}
		tx, _ := db.Begin()
		model := make(map[int64][]byte)
		committed := make(map[int64][]byte)
		restart := func() {
			model = make(map[int64][]byte, len(committed))
			for k, v := range committed {
				model[k] = v
			}
			if tx, err = db.Begin(); err != nil {
				t.Fatal(err)
			}
		}
		if len(data) > 4*maxFuzzOps {
			data = data[:4*maxFuzzOps]
		}
		for ; len(data) >= 4; data = data[4:] {
			code, key := data[0]%8, int64(int16(binary.LittleEndian.Uint16(data[1:])))
			n := int(data[3]) * MaxValueLen / 255
			switch code {
			case 0: // insert or overwrite
				v := fuzzValue(key, n)
				if err := tx.Insert(key, v); err != nil {
					t.Fatalf("insert %d (%d bytes): %v", key, n, err)
				}
				model[key] = v
			case 1: // delete
				_, ok := model[key]
				if err := tx.Delete(key); ok != (err == nil) {
					t.Fatalf("delete %d: %v (in model: %v)", key, err, ok)
				}
				delete(model, key)
			case 2: // get: the check after every op below
			case 3:
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				committed = model
				restart()
			case 4:
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				restart()
			case 5: // bulk fill: n ascending keys from key on
				if len(model) > maxFuzzRows {
					continue
				}
				for i := int64(0); i < int64(n); i++ {
					k := key + i*7
					v := fuzzValue(k, 4*int(uint8(key)))
					if err := tx.Insert(k, v); err != nil {
						t.Fatalf("fill insert %d: %v", k, err)
					}
					model[k] = v
				}
			case 6: // reopen: n odd crashes with pages flushed, n even closes
				if n%2 == 1 {
					if err := db.pager.flush(); err != nil {
						t.Fatal(err)
					}
					db.DropCaches()
				} else if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = Open(io, path); err != nil {
					t.Fatal(err)
				}
				restart()
			case 7:
				checkContents(t, db, model)
			}
			if err := checkTree(db.pager); err != nil {
				t.Fatalf("after op %d on key %d: %v", code, key, err)
			}
			got, err := tx.Get(key)
			if want, ok := model[key]; ok != (err == nil) || !bytes.Equal(got, want) {
				t.Fatalf("after op %d: get %d = %d bytes, %v; want %d bytes", code, key, len(got), err, len(want))
			}
		}
		checkContents(t, db, model)
	})
}

var zeroPage [PageSize]byte

// checkTree walks the whole tree and checks every page: keys ascending
// and inside the range the parent gives the page, the cell count matching
// the packed run, and every byte after the run zero.
func checkTree(p *pager) error {
	var walk func(no uint32, lo, hi int64, first bool) error
	walk = func(no uint32, lo, hi int64, first bool) error {
		buf, err := p.page(no)
		if err != nil {
			return err
		}
		inRange := func(k int64) bool { return (first || k > lo) && k <= hi }
		var end int
		switch buf[0] {
		case pageLeaf:
			end = leafHdr
			for i, prev := 0, int64(0); i < cellCount(buf); i++ {
				next, err := leafCellEnd(buf, end)
				if err != nil {
					return fmt.Errorf("leaf %d: cell %d of %d overruns the page", no, i, cellCount(buf))
				}
				k := leafKey(buf, end)
				if !inRange(k) || (i > 0 && k <= prev) {
					return fmt.Errorf("leaf %d: key %d out of order or outside (%d, %d]", no, k, lo, hi)
				}
				prev, end = k, next
			}
		case pageInterior:
			n := cellCount(buf)
			end = interiorHdr + n*interiorCellLen
			if n == 0 || end > len(buf) {
				return fmt.Errorf("interior %d: %d cells", no, n)
			}
			childLo, childFirst := lo, first
			for i := 0; i < n; i++ {
				k := interiorKey(buf, i)
				if !inRange(k) || (i > 0 && k <= interiorKey(buf, i-1)) {
					return fmt.Errorf("interior %d: key %d out of order or outside (%d, %d]", no, k, lo, hi)
				}
				if err := walk(interiorChild(buf, i), childLo, k, childFirst); err != nil {
					return err
				}
				childLo, childFirst = k, false
			}
			if err := walk(rightmost(buf), childLo, hi, childFirst); err != nil {
				return err
			}
		default:
			return fmt.Errorf("page %d: type %d", no, buf[0])
		}
		if tail := buf[end:]; !bytes.Equal(tail, zeroPage[:len(tail)]) {
			return fmt.Errorf("page %d: nonzero bytes after the run, which ends at %d", no, end)
		}
		return nil
	}
	return walk(p.rootPage, 0, 1<<63-1, true)
}
