package minidb

import "fmt"

// DB is one open database.
type DB struct {
	pager *pager
}

// Open opens (or creates) a database at path, rolling back any
// interrupted transaction found in the journal.
func Open(io FileIO, path string) (*DB, error) {
	p, err := openPager(io, path)
	if err != nil {
		return nil, err
	}
	return &DB{pager: p}, nil
}

// Close releases the database file.
func (db *DB) Close() error {
	if db.pager.journalOpen {
		if err := db.pager.rollbackJournal(); err != nil {
			return err
		}
	}
	return db.pager.io.Close(db.pager.fd)
}

// Tx is one write transaction.
type Tx struct {
	db   *DB
	done bool
}

// Begin starts a transaction; only one may be active.
func (db *DB) Begin() (*Tx, error) {
	if err := db.pager.beginJournal(); err != nil {
		return nil, err
	}
	return &Tx{db: db}, nil
}

// Insert stores (or overwrites) a row.
func (tx *Tx) Insert(key int64, val []byte) error {
	if tx.done {
		return ErrNoTx
	}
	if len(val) > MaxValueLen {
		return fmt.Errorf("minidb: value %d bytes exceeds %d", len(val), MaxValueLen)
	}
	return tx.db.pager.treeInsert(key, val)
}

// Delete removes a row.
func (tx *Tx) Delete(key int64) error {
	if tx.done {
		return ErrNoTx
	}
	return tx.db.pager.treeDelete(key)
}

// Get reads a row through the transaction (sees uncommitted writes).
func (tx *Tx) Get(key int64) ([]byte, error) {
	if tx.done {
		return nil, ErrNoTx
	}
	return tx.db.pager.treeGet(key)
}

// Commit makes the transaction durable.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrNoTx
	}
	tx.done = true
	return tx.db.pager.commitJournal()
}

// Rollback aborts the transaction.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrNoTx
	}
	tx.done = true
	return tx.db.pager.rollbackJournal()
}

// Get reads a committed row.
func (db *DB) Get(key int64) ([]byte, error) {
	return db.pager.treeGet(key)
}

// Scan visits rows with keys in [from, to] in ascending order; the
// visitor returns false to stop. val is the page's own bytes: it is valid
// only until the visitor returns, and the visitor must not modify the
// database.
func (db *DB) Scan(from, to int64, visit func(key int64, val []byte) bool) error {
	_, err := db.pager.treeScan(db.pager.rootPage, from, to, visit)
	return err
}

// Count returns the number of rows in [from, to].
func (db *DB) Count(from, to int64) (int, error) {
	n := 0
	err := db.Scan(from, to, func(int64, []byte) bool { n++; return true })
	return n, err
}

// Pages reports the database size in pages (diagnostics and benches).
func (db *DB) Pages() int { return int(db.pager.pageCount) }

// DropCaches simulates a crash: all in-memory state is discarded without
// flushing. The file (and any journal) are left exactly as the last
// Pwrite/Fsync left them; reopening recovers.
func (db *DB) DropCaches() {
	db.pager.cache = make(map[uint32][]byte)
	db.pager.dirty = make(map[uint32]bool)
	db.pager.journalOpen = false
}
