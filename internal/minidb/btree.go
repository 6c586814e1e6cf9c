package minidb

import (
	"encoding/binary"
	"sort"
)

// Page types.
const (
	pageLeaf     = 1
	pageInterior = 2
)

// MaxValueLen bounds row values so several cells always fit in a page.
const MaxValueLen = 1024

// leaf page layout:   [type u8][ncells u16] cells: (key i64, vlen u16, val)
// interior layout:    [type u8][ncells u16][rightmost u32] cells: (key i64, child u32)
//
// Cells are packed in ascending key order straight after the header, and
// every byte after the last cell is zero. Interior cell semantics: child
// holds keys <= key; rightmost holds the rest.
//
// Every operation reads and edits the cached page bytes in place. A leaf
// edit walks the packed cells to the key, then moves the tail of the run
// to open, grow, shrink or close the gap; an interior edit binary-searches
// the fixed-size cells.
const (
	leafHdr          = 3
	leafCellHdr      = 10 // key, vlen
	interiorHdr      = 7
	interiorCellLen  = 12 // key, child
	maxInteriorCells = (PageSize - interiorHdr) / interiorCellLen
)

func cellCount(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[1:])) }

func setCellCount(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[1:], uint16(n)) }

func leafKey(buf []byte, off int) int64 { return int64(binary.LittleEndian.Uint64(buf[off:])) }

// leafCellLen is the length of the leaf cell at off, whose header must
// lie inside buf.
func leafCellLen(buf []byte, off int) int {
	return leafCellHdr + int(binary.LittleEndian.Uint16(buf[off+8:]))
}

// leafCellEnd returns the offset just past the leaf cell at off, checking
// that the cell lies inside buf.
func leafCellEnd(buf []byte, off int) (int, error) {
	if off+leafCellHdr > len(buf) {
		return 0, ErrCorrupt
	}
	end := off + leafCellLen(buf, off)
	if end > len(buf) {
		return 0, ErrCorrupt
	}
	return end, nil
}

// leafSeek walks leaf buf to the first cell whose key is >= key. It
// returns that cell's index and offset, or the cell count and the end of
// the run when every key is smaller.
func leafSeek(buf []byte, key int64) (idx, off int, err error) {
	off = leafHdr
	for n := cellCount(buf); idx < n; idx++ {
		next, err := leafCellEnd(buf, off)
		if err != nil {
			return 0, 0, err
		}
		if leafKey(buf, off) >= key {
			break
		}
		off = next
	}
	return idx, off, nil
}

// leafRunEnd walks on from cell idx at offset off to the end of the run.
func leafRunEnd(buf []byte, idx, off int) (int, error) {
	for n := cellCount(buf); idx < n; idx++ {
		var err error
		if off, err = leafCellEnd(buf, off); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// leafPut writes the cell (key, val) at off over the oldLen bytes of the
// cell there (0 to insert a new one), moving the rest of the run, which
// ends at end, and returns the run's new end. Bytes the run gives up are
// zeroed. buf must have room for the grown run.
func leafPut(buf []byte, off, oldLen, end int, key int64, val []byte) int {
	newLen := leafCellHdr + len(val)
	newEnd := end + newLen - oldLen
	copy(buf[off+newLen:newEnd], buf[off+oldLen:end])
	binary.LittleEndian.PutUint64(buf[off:], uint64(key))
	binary.LittleEndian.PutUint16(buf[off+8:], uint16(len(val)))
	copy(buf[off+leafCellHdr:], val)
	if newEnd < end {
		clear(buf[newEnd:end])
	}
	return newEnd
}

func interiorKey(buf []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(buf[interiorHdr+i*interiorCellLen:]))
}

func interiorChild(buf []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(buf[interiorHdr+i*interiorCellLen+8:])
}

func rightmost(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf[3:]) }

// interiorSeek binary-searches interior buf for the first cell whose key
// is >= key, returning its index (the cell count when there is none) and
// the child that holds key.
func interiorSeek(buf []byte, key int64) (idx int, child uint32, err error) {
	n := cellCount(buf)
	if interiorHdr+n*interiorCellLen > len(buf) {
		return 0, 0, ErrCorrupt
	}
	idx = sort.Search(n, func(i int) bool { return interiorKey(buf, i) >= key })
	if idx < n {
		return idx, interiorChild(buf, idx), nil
	}
	return idx, rightmost(buf), nil
}

// interiorPut inserts the separator cell (key, child) at index idx of the
// n cells in buf, and hands the keys above key that child held to
// newRight: the next cell, or rightmost when idx is last, now points at
// newRight. buf must have room for n+1 cells.
func interiorPut(buf []byte, n, idx int, key int64, child, newRight uint32) {
	at := interiorHdr + idx*interiorCellLen
	copy(buf[at+interiorCellLen:], buf[at:interiorHdr+n*interiorCellLen])
	binary.LittleEndian.PutUint64(buf[at:], uint64(key))
	binary.LittleEndian.PutUint32(buf[at+8:], child)
	if idx < n {
		binary.LittleEndian.PutUint32(buf[at+interiorCellLen+8:], newRight)
	} else {
		binary.LittleEndian.PutUint32(buf[3:], newRight)
	}
	setCellCount(buf, n+1)
}

// splitResult propagates a split upward: a new right sibling and the
// separator key (max key of the left node).
type splitResult struct {
	sepKey   int64
	newRight uint32
}

// overflow returns the pager's scratch page, with room for one page plus
// the largest cell, holding a copy of buf. An edit that no longer fits a
// page is made there and then cut in two.
func (p *pager) overflow(buf []byte) []byte {
	if p.scratch == nil {
		p.scratch = make([]byte, PageSize+leafCellHdr+MaxValueLen)
	}
	copy(p.scratch, buf)
	return p.scratch
}

// insert descends from page no; returns a split to propagate, or nil.
func (p *pager) insert(no uint32, key int64, val []byte) (*splitResult, error) {
	buf, err := p.page(no)
	if err != nil {
		return nil, err
	}
	switch buf[0] {
	case pageLeaf:
		idx, off, err := leafSeek(buf, key)
		if err != nil {
			return nil, err
		}
		end, err := leafRunEnd(buf, idx, off)
		if err != nil {
			return nil, err
		}
		n, oldLen := cellCount(buf), 0
		if idx < n && leafKey(buf, off) == key {
			oldLen = leafCellLen(buf, off) // overwrite
		} else {
			n++
		}
		buf, err = p.modify(no)
		if err != nil {
			return nil, err
		}
		if end+leafCellHdr+len(val)-oldLen <= PageSize {
			leafPut(buf, off, oldLen, end, key, val)
			setCellCount(buf, n)
			return nil, nil
		}
		s := p.overflow(buf)
		return p.splitLeaf(buf, s, n, leafPut(s, off, oldLen, end, key, val))

	case pageInterior:
		idx, child, err := interiorSeek(buf, key)
		if err != nil {
			return nil, err
		}
		split, err := p.insert(child, key, val)
		if err != nil || split == nil {
			return nil, err
		}
		// Insert the separator: newRight takes child's upper half.
		buf, err = p.modify(no)
		if err != nil {
			return nil, err
		}
		n := cellCount(buf)
		if n < maxInteriorCells {
			interiorPut(buf, n, idx, split.sepKey, child, split.newRight)
			return nil, nil
		}
		s := p.overflow(buf)
		interiorPut(s, n, idx, split.sepKey, child, split.newRight)
		return p.splitInterior(buf, s, n+1)

	default:
		return nil, ErrCorrupt
	}
}

// splitLeaf cuts the n cells packed in s[leafHdr:end], which overflow a
// page by at most one cell, between left (the page being split) and a new
// right sibling. Left keeps the first n/2 cells. When either side of that
// cut would still overflow, the cut moves to the first cell whose tail
// fits a page; the head before it then holds under two cells' worth and
// fits too.
func (p *pager) splitLeaf(left, s []byte, n, end int) (*splitResult, error) {
	const room = PageSize - leafHdr
	cut, cutOff, sepOff := -1, 0, 0
	fit, fitOff, fitSep := -1, 0, 0
	for i, off, prev := 0, leafHdr, 0; i < n; i++ {
		if i == n/2 {
			cut, cutOff, sepOff = i, off, prev
		}
		if fit < 0 && end-off <= room {
			fit, fitOff, fitSep = i, off, prev
		}
		prev = off
		off += leafCellLen(s, off)
	}
	if cutOff-leafHdr > room || end-cutOff > room {
		cut, cutOff, sepOff = fit, fitOff, fitSep
	}
	rightNo, right, err := p.alloc()
	if err != nil {
		return nil, err
	}
	right[0] = pageLeaf
	setCellCount(right, n-cut)
	copy(right[leafHdr:], s[cutOff:end])
	copy(left, s[:cutOff])
	clear(left[cutOff:])
	setCellCount(left, cut)
	return &splitResult{sepKey: leafKey(s, sepOff), newRight: rightNo}, nil
}

// splitInterior cuts the n cells in s, one more than fit a page, around
// the middle cell: left (the page being split) keeps the cells below it
// with its child as rightmost, a new right sibling takes the cells above
// it and s's rightmost, and its key moves up as the separator.
func (p *pager) splitInterior(left, s []byte, n int) (*splitResult, error) {
	mid := n / 2
	sepAt := interiorHdr + mid*interiorCellLen
	rightNo, right, err := p.alloc()
	if err != nil {
		return nil, err
	}
	right[0] = pageInterior
	setCellCount(right, n-mid-1)
	copy(right[3:interiorHdr], s[3:interiorHdr])
	copy(right[interiorHdr:], s[sepAt+interiorCellLen:interiorHdr+n*interiorCellLen])
	copy(left, s[:sepAt])
	clear(left[sepAt:])
	setCellCount(left, mid)
	binary.LittleEndian.PutUint32(left[3:], interiorChild(s, mid))
	return &splitResult{sepKey: interiorKey(s, mid), newRight: rightNo}, nil
}

// treeInsert inserts at the root, growing the tree on a root split.
func (p *pager) treeInsert(key int64, val []byte) error {
	split, err := p.insert(p.rootPage, key, val)
	if err != nil || split == nil {
		return err
	}
	newRootNo, root, err := p.alloc()
	if err != nil {
		return err
	}
	root[0] = pageInterior
	interiorPut(root, 0, 0, split.sepKey, p.rootPage, split.newRight)
	p.rootPage = newRootNo
	return p.writeHeader()
}

// findLeaf descends from the root to the leaf that holds key, returning
// its page number and bytes and the index and offset of the first cell
// whose key is >= key.
func (p *pager) findLeaf(key int64) (no uint32, buf []byte, idx, off int, err error) {
	no = p.rootPage
	for {
		if buf, err = p.page(no); err != nil {
			return 0, nil, 0, 0, err
		}
		switch buf[0] {
		case pageLeaf:
			idx, off, err = leafSeek(buf, key)
			return no, buf, idx, off, err
		case pageInterior:
			if _, no, err = interiorSeek(buf, key); err != nil {
				return 0, nil, 0, 0, err
			}
		default:
			return 0, nil, 0, 0, ErrCorrupt
		}
	}
}

// treeGet finds a key and returns a copy of its value.
func (p *pager) treeGet(key int64) ([]byte, error) {
	_, buf, idx, off, err := p.findLeaf(key)
	if err != nil {
		return nil, err
	}
	if idx == cellCount(buf) || leafKey(buf, off) != key {
		return nil, ErrNotFound
	}
	val := make([]byte, leafCellLen(buf, off)-leafCellHdr)
	copy(val, buf[off+leafCellHdr:])
	return val, nil
}

// treeDelete removes a key from its leaf (no rebalancing: deleted space
// is reclaimed on subsequent splits).
func (p *pager) treeDelete(key int64) error {
	no, buf, idx, off, err := p.findLeaf(key)
	if err != nil {
		return err
	}
	n := cellCount(buf)
	if idx == n || leafKey(buf, off) != key {
		return ErrNotFound
	}
	end, err := leafRunEnd(buf, idx, off)
	if err != nil {
		return err
	}
	next := off + leafCellLen(buf, off)
	if buf, err = p.modify(no); err != nil {
		return err
	}
	copy(buf[off:], buf[next:end])
	clear(buf[end-(next-off) : end])
	setCellCount(buf, n-1)
	return nil
}

// treeScan visits keys in [from, to] in order. The value handed to visit
// is the page's own bytes: it is valid only until visit returns.
func (p *pager) treeScan(no uint32, from, to int64, visit func(key int64, val []byte) bool) (bool, error) {
	buf, err := p.page(no)
	if err != nil {
		return false, err
	}
	switch buf[0] {
	case pageLeaf:
		for i, off, n := 0, leafHdr, cellCount(buf); i < n; i++ {
			next, err := leafCellEnd(buf, off)
			if err != nil {
				return false, err
			}
			key, val := leafKey(buf, off), buf[off+leafCellHdr:next:next]
			off = next
			if key < from {
				continue
			}
			if key > to || !visit(key, val) {
				return false, nil
			}
		}
		return true, nil
	case pageInterior:
		n := cellCount(buf)
		if interiorHdr+n*interiorCellLen > len(buf) {
			return false, ErrCorrupt
		}
		for i := 0; i < n; i++ {
			if interiorKey(buf, i) < from {
				continue
			}
			cont, err := p.treeScan(interiorChild(buf, i), from, to, visit)
			if err != nil || !cont {
				return cont, err
			}
		}
		return p.treeScan(rightmost(buf), from, to, visit)
	default:
		return false, ErrCorrupt
	}
}
