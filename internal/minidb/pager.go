// Package minidb is the embedded database standing in for SQLite in the
// macrobenchmarks (Section VI-B): a pager with a rollback journal over the
// simulated filesystem, and a B+tree keyed by 64-bit row ids. Tree pages
// hold packed cells, and every operation reads and edits the cached page
// bytes in place, as SQLite edits its B-tree pages.
//
// All I/O goes through the FileIO interface — satisfied by
// anception.Proc — so database operations are subject to the platform's
// redirection exactly like a real app's SQLite calls, and the buffering
// behavior that masks Anception's I/O latency at the macro level emerges
// from the page cache rather than being modeled.
package minidb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"anception/internal/abi"
)

// PageSize matches the platform page and data-channel chunk size.
const PageSize = abi.PageSize

// FileIO is the system-call surface the database needs; anception.Proc
// implements it.
type FileIO interface {
	Open(path string, flags abi.OpenFlag, mode abi.FileMode) (int, error)
	Close(fd int) error
	Pread(fd int, n int, off int64) ([]byte, error)
	Pwrite(fd int, data []byte, off int64) (int, error)
	Fsync(fd int) (int, error)
	Ftruncate(fd int, size int64) error
	Unlink(path string) error
	Stat(path string) (int64, error)
}

// ErrCorrupt reports a malformed database file.
var ErrCorrupt = errors.New("minidb: corrupt database")

// ErrTxActive reports an attempt to start a second transaction.
var ErrTxActive = errors.New("minidb: transaction already active")

// ErrNoTx reports a data operation outside a transaction.
var ErrNoTx = errors.New("minidb: no active transaction")

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("minidb: key not found")

const dbMagic = "MDB1"

// pager manages the page file, the in-memory cache, and the rollback
// journal.
type pager struct {
	io          FileIO
	path        string
	journalPath string
	fd          int

	pageCount uint32
	rootPage  uint32

	cache map[uint32][]byte
	dirty map[uint32]bool

	journalFD    int
	journalOpen  bool
	journaled    map[uint32]bool
	origCount    uint32
	journalBytes int64
	// journalBuf accumulates before-images in memory; they spill to the
	// journal file (with an fsync) before any database page hits disk,
	// the same ordering contract SQLite's rollback journal keeps.
	journalBuf []byte

	// scratch holds a page mid-split: the edit that overflows it is made
	// here, then cut in two.
	scratch []byte
}

func openPager(io FileIO, path string) (*pager, error) {
	p := &pager{
		io:          io,
		path:        path,
		journalPath: path + "-journal",
		cache:       make(map[uint32][]byte),
		dirty:       make(map[uint32]bool),
		journaled:   make(map[uint32]bool),
	}

	// Crash recovery: a leftover journal means the last transaction never
	// committed; roll it back before touching the database.
	if _, err := io.Stat(p.journalPath); err == nil {
		if err := p.rollbackJournalFile(); err != nil {
			return nil, fmt.Errorf("minidb: recover: %w", err)
		}
	}

	fd, err := io.Open(path, abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		return nil, fmt.Errorf("minidb: open %s: %w", path, err)
	}
	p.fd = fd

	size, err := io.Stat(path)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		// Fresh database: header page plus an empty leaf root.
		p.pageCount = 2
		p.rootPage = 1
		root := make([]byte, PageSize)
		root[0] = pageLeaf
		p.cache[1] = root
		p.dirty[1] = true
		if err := p.writeHeader(); err != nil {
			return nil, err
		}
		if err := p.flush(); err != nil {
			return nil, err
		}
		return p, nil
	}

	hdr, err := io.Pread(fd, PageSize, 0)
	if err != nil {
		return nil, err
	}
	if len(hdr) < 16 || string(hdr[:4]) != dbMagic {
		return nil, ErrCorrupt
	}
	p.pageCount = binary.LittleEndian.Uint32(hdr[4:])
	p.rootPage = binary.LittleEndian.Uint32(hdr[8:])
	if p.rootPage == 0 || p.rootPage >= p.pageCount {
		return nil, ErrCorrupt
	}
	return p, nil
}

func (p *pager) writeHeader() error {
	// The header is page 0 and must be journaled like any other page, or
	// a crash mid-transaction would leave a header pointing at rolled-
	// back structure.
	buf, err := p.modify(0)
	if err != nil {
		return err
	}
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, dbMagic)
	binary.LittleEndian.PutUint32(buf[4:], p.pageCount)
	binary.LittleEndian.PutUint32(buf[8:], p.rootPage)
	return nil
}

// page returns the cached (or loaded) page buffer.
func (p *pager) page(no uint32) ([]byte, error) {
	if buf, ok := p.cache[no]; ok {
		return buf, nil
	}
	if no >= p.pageCount {
		return nil, fmt.Errorf("minidb: page %d out of range: %w", no, ErrCorrupt)
	}
	buf, err := p.io.Pread(p.fd, PageSize, int64(no)*PageSize)
	if err != nil {
		return nil, err
	}
	if len(buf) < PageSize {
		grown := make([]byte, PageSize)
		copy(grown, buf)
		buf = grown
	}
	p.cache[no] = buf
	return buf, nil
}

// modify journals the page's before-image (once per transaction) and
// marks it dirty.
func (p *pager) modify(no uint32) ([]byte, error) {
	buf, err := p.page(no)
	if err != nil {
		return nil, err
	}
	if p.journalOpen && !p.journaled[no] && no < p.origCount {
		p.journalBuf = binary.LittleEndian.AppendUint32(p.journalBuf, no)
		p.journalBuf = append(p.journalBuf, buf...)
		p.journaled[no] = true
	}
	p.dirty[no] = true
	return buf, nil
}

// alloc appends a fresh page and records the new page count in the
// header. On error the page count is left as it was.
func (p *pager) alloc() (uint32, []byte, error) {
	no := p.pageCount
	p.pageCount++
	if err := p.writeHeader(); err != nil {
		p.pageCount--
		return 0, nil, err
	}
	buf := make([]byte, PageSize)
	p.cache[no] = buf
	p.dirty[no] = true
	return no, buf, nil
}

func (p *pager) beginJournal() error {
	if p.journalOpen {
		return ErrTxActive
	}
	fd, err := p.io.Open(p.journalPath, abi.ORdWr|abi.OCreat|abi.OTrunc, 0o600)
	if err != nil {
		return err
	}
	// Journal header: the original page count, for truncation on
	// rollback.
	hdr := make([]byte, 8)
	copy(hdr, "MDBJ")
	binary.LittleEndian.PutUint32(hdr[4:], p.pageCount)
	if _, err := p.io.Pwrite(fd, hdr, 0); err != nil {
		return err
	}
	p.journalFD = fd
	p.journalOpen = true
	p.journalBytes = 8
	p.origCount = p.pageCount
	p.journaled = make(map[uint32]bool)
	p.journalBuf = nil
	return nil
}

// spillJournal writes buffered before-images to the journal file and
// syncs it; it must complete before any database page write.
func (p *pager) spillJournal() error {
	if !p.journalOpen || len(p.journalBuf) == 0 {
		return nil
	}
	if _, err := p.io.Pwrite(p.journalFD, p.journalBuf, p.journalBytes); err != nil {
		return err
	}
	p.journalBytes += int64(len(p.journalBuf))
	p.journalBuf = nil
	if _, err := p.io.Fsync(p.journalFD); err != nil {
		return err
	}
	return nil
}

// flushBatchPages bounds one coalesced write (256 KiB).
const flushBatchPages = 64

// flush spills the journal, then writes dirty pages to the database file,
// coalescing contiguous runs into single large writes — the sequential-
// write batching that lets filesystem buffering mask redirection latency
// at the macro level (Section VI-B).
func (p *pager) flush() error {
	if err := p.spillJournal(); err != nil {
		return err
	}
	nos := make([]uint32, 0, len(p.dirty))
	for no := range p.dirty {
		nos = append(nos, no)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	for i := 0; i < len(nos); {
		j := i
		for j+1 < len(nos) && nos[j+1] == nos[j]+1 && j+1-i < flushBatchPages {
			j++
		}
		run := make([]byte, 0, (j-i+1)*PageSize)
		for k := i; k <= j; k++ {
			run = append(run, p.cache[nos[k]]...)
		}
		if _, err := p.io.Pwrite(p.fd, run, int64(nos[i])*PageSize); err != nil {
			return err
		}
		i = j + 1
	}
	p.dirty = make(map[uint32]bool)
	return nil
}

// commitJournal makes the transaction durable: flush pages, sync, drop
// the journal.
func (p *pager) commitJournal() error {
	if !p.journalOpen {
		return ErrNoTx
	}
	if err := p.flush(); err != nil {
		return err
	}
	if _, err := p.io.Fsync(p.fd); err != nil {
		return err
	}
	if err := p.io.Close(p.journalFD); err != nil {
		return err
	}
	if err := p.io.Unlink(p.journalPath); err != nil {
		return err
	}
	p.journalOpen = false
	return nil
}

// rollbackJournal aborts the in-flight transaction using the in-memory
// state (cache drop) plus the journal for any pages already flushed.
func (p *pager) rollbackJournal() error {
	if !p.journalOpen {
		return ErrNoTx
	}
	if err := p.io.Close(p.journalFD); err != nil {
		return err
	}
	p.journalOpen = false
	if err := p.rollbackJournalFile(); err != nil {
		return err
	}
	// Drop all cached state and reload the header.
	p.cache = make(map[uint32][]byte)
	p.dirty = make(map[uint32]bool)
	hdr, err := p.io.Pread(p.fd, PageSize, 0)
	if err != nil {
		return err
	}
	p.pageCount = binary.LittleEndian.Uint32(hdr[4:])
	p.rootPage = binary.LittleEndian.Uint32(hdr[8:])
	return nil
}

// rollbackJournalFile restores before-images from the journal file and
// removes it.
func (p *pager) rollbackJournalFile() error {
	jfd, err := p.io.Open(p.journalPath, abi.ORdOnly, 0)
	if err != nil {
		return err
	}
	hdr, err := p.io.Pread(jfd, 8, 0)
	if err != nil || len(hdr) < 8 || string(hdr[:4]) != "MDBJ" {
		_ = p.io.Close(jfd)
		_ = p.io.Unlink(p.journalPath)
		return nil // empty/garbage journal: nothing was written
	}
	origCount := binary.LittleEndian.Uint32(hdr[4:])

	dbfd, err := p.io.Open(p.path, abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		_ = p.io.Close(jfd)
		return err
	}
	err = p.restoreJournal(jfd, dbfd, origCount)
	_ = p.io.Close(jfd)
	_ = p.io.Close(dbfd)
	if err != nil {
		return err
	}
	return p.io.Unlink(p.journalPath)
}

// restoreJournal writes the journal's before-images back into the
// database file, truncates it to origCount pages and syncs it.
func (p *pager) restoreJournal(jfd, dbfd int, origCount uint32) error {
	for off := int64(8); ; off += 4 + PageSize {
		entry, err := p.io.Pread(jfd, 4+PageSize, off)
		if err != nil || len(entry) < 4+PageSize {
			break
		}
		no := binary.LittleEndian.Uint32(entry)
		if _, err := p.io.Pwrite(dbfd, entry[4:], int64(no)*PageSize); err != nil {
			return err
		}
	}
	if err := p.io.Ftruncate(dbfd, int64(origCount)*PageSize); err != nil {
		return err
	}
	_, err := p.io.Fsync(dbfd)
	return err
}
