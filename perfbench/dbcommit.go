package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"anception/internal/anception"
	"anception/internal/minidb"
)

// db-commit runs the paper's two database workloads from one app on an
// AutoTune device, calling minidb directly: the SQLite 10,000-row
// transaction (Section VI-B) and the AnTuTu database workload. Commits
// and their fsyncs fall inside the timed window, and every row is read
// back from a freshly opened database afterwards. It exercises the cache
// layer's write and write-back side, which app-fleet barely does, and it
// is the paper's macro claim: simulated engine work dominates, so
// simulated time moves little while host time goes mostly to minidb and
// the filesystem.
//
// Row counts, row sizes, transaction shapes and per-row engine work are
// the constants of workloads.SQLiteRowBench and
// workloads.AnTuTuDatabaseIO. The seed draws the key order, the query
// keys, and each row's engine work uniformly between half and one and a
// half times the workload's constant, so the mean stays the paper's.
//
// A row's latency sample is its engine work, its insert, and its share
// of the commit that made it durable — the per-row time the paper
// reports for SQLite. A query's sample is its engine work and its get.

const (
	sqliteRows     = 10_000
	sqliteRowSize  = 26
	sqliteRowWork  = 41_000
	antutuTxns     = 5
	antutuRowsTx   = 300
	antutuQueries  = 500
	antutuRowSize  = 36 // AnTuTuDatabaseIO's row paragraph
	antutuRowWork  = 150_000
	antutuGetWork  = 30_000
	dbRoundRepeats = 4
)

// dbRow is one generated row.
type dbRow struct {
	key  int64
	val  []byte
	work int64
}

// dbPlan is one repetition's generated inputs.
type dbPlan struct {
	sqlite  []dbRow
	antutu  []dbRow // antutuTxns transactions of antutuRowsTx rows
	queries []int   // indexes into antutu
}

func genRows(rng *rand.Rand, n, size int, meanWork int64, tag string) []dbRow {
	rows := make([]dbRow, n)
	for i, k := range rng.Perm(n) {
		val := make([]byte, size)
		copy(val, fmt.Sprintf("%s-%08d", tag, k))
		work := meanWork/2 + rng.Int63n(meanWork+1)
		rows[i] = dbRow{key: int64(k), val: val, work: work}
	}
	return rows
}

func genDBPlan(rng *rand.Rand, scale func(n, floor int) int) dbPlan {
	plan := dbPlan{
		sqlite: genRows(rng, scale(sqliteRows, 200), sqliteRowSize, sqliteRowWork, "row"),
		antutu: genRows(rng, antutuTxns*scale(antutuRowsTx, 20), antutuRowSize, antutuRowWork, "antutu"),
	}
	plan.queries = make([]int, scale(antutuQueries, 20))
	for i := range plan.queries {
		plan.queries[i] = rng.Intn(len(plan.antutu))
	}
	return plan
}

func runDBCommit(cfg roundConfig) (*roundResult, error) {
	res := &roundResult{}
	t0 := time.Now()
	var err error
	if res.paperErrPct, err = probeTableI(); err != nil {
		return nil, err
	}
	d, err := anception.NewDevice(deviceOptions())
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	defer d.Close()
	p, err := launchApp(d, "com.perfbench.db")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	plans := make([]dbPlan, dbRoundRepeats)
	type dbPair struct{ sqlite, antutu *minidb.DB }
	dbs := make([]dbPair, dbRoundRepeats)
	for i := range plans {
		plans[i] = genDBPlan(rng, cfg.size)
		if dbs[i].sqlite, err = minidb.Open(p, fmt.Sprintf("%s/bench-%d.db", p.App.Info.DataDir, i)); err != nil {
			return nil, fmt.Errorf("open sqlite db: %w", err)
		}
		if dbs[i].antutu, err = minidb.Open(p, fmt.Sprintf("%s/antutu-%d.db", p.App.Info.DataDir, i)); err != nil {
			return nil, fmt.Errorf("open antutu db: %w", err)
		}
	}
	res.setup = time.Since(t0)

	x := &dbDriver{d: d, p: p, rec: newRecorder(d.Clock, 0, cfg.traced, cfg.epoch, cfg.spans, 0), res: res}
	win := openDeviceWindow(d)
	for i, plan := range plans {
		if err := x.run(dbs[i].sqlite, dbs[i].antutu, plan); err != nil {
			return nil, err
		}
	}
	simElapsed := win.close(res, cfg.epoch)
	res.rec = x.rec
	res.simOpsPerSec = float64(res.ops) / simElapsed.Seconds()
	win.layers(res)

	// Read every row back through a freshly opened database.
	for i, plan := range plans {
		for _, db := range []*minidb.DB{dbs[i].sqlite, dbs[i].antutu} {
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("close db: %w", err)
			}
		}
		checkDB(res, p, fmt.Sprintf("%s/bench-%d.db", p.App.Info.DataDir, i), plan.sqlite)
		checkDB(res, p, fmt.Sprintf("%s/antutu-%d.db", p.App.Info.DataDir, i), plan.antutu)
	}
	d.Close()
	res.violations = checkIdentities("cvm", d)
	return res, nil
}

// dbDriver issues one app's minidb calls and times them.
type dbDriver struct {
	d   *anception.Device
	p   *anception.Proc
	rec *recorder
	res *roundResult
}

// call runs one minidb call after its engine work. The span covers the
// minidb call; the returned time covers both.
func (x *dbDriver) call(op opKind, work int64, f func() error) (time.Duration, error) {
	begin := x.d.Clock.Now()
	x.p.Compute(work)
	m := x.rec.start()
	err := f()
	x.rec.stop(m, op, false)
	x.res.ops++
	return x.d.Clock.Now() - begin, err
}

// insertAll inserts rows in one transaction and gives each row's
// latency sample an equal share of the commit.
func (x *dbDriver) insertAll(db *minidb.DB, rows []dbRow) error {
	tx, err := db.Begin()
	if err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	first := len(x.rec.lat)
	for _, r := range rows {
		lat, err := x.call(opInsert, r.work, func() error { return tx.Insert(r.key, r.val) })
		if err != nil {
			return fmt.Errorf("insert %d: %w", r.key, err)
		}
		x.rec.lat = append(x.rec.lat, lat)
	}
	commit, err := x.call(opCommit, 0, tx.Commit)
	if err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	share := commit / time.Duration(len(rows))
	for i := first; i < len(x.rec.lat); i++ {
		x.rec.lat[i] += share
	}
	return nil
}

// run runs one repetition: the SQLite transaction, then the AnTuTu
// transactions and point queries.
func (x *dbDriver) run(sqlite, antutu *minidb.DB, plan dbPlan) error {
	if err := x.insertAll(sqlite, plan.sqlite); err != nil {
		return fmt.Errorf("sqlite: %w", err)
	}
	per := len(plan.antutu) / antutuTxns
	for t := 0; t < antutuTxns; t++ {
		if err := x.insertAll(antutu, plan.antutu[t*per:(t+1)*per]); err != nil {
			return fmt.Errorf("antutu: %w", err)
		}
	}
	for _, q := range plan.queries {
		want := plan.antutu[q]
		var got []byte
		lat, err := x.call(opGet, antutuGetWork, func() error {
			var err error
			got, err = antutu.Get(want.key)
			return err
		})
		x.rec.lat = append(x.rec.lat, lat)
		if err != nil || !bytes.Equal(got, want.val) {
			x.res.fail("antutu query %d: %q, %v", want.key, got, err)
		}
	}
	return nil
}

// checkDB reopens the database at path and checks that it holds exactly
// rows.
func checkDB(res *roundResult, p *anception.Proc, path string, rows []dbRow) {
	db, err := minidb.Open(p, path)
	if err != nil {
		res.fail("reopen %s: %v", path, err)
		return
	}
	defer db.Close()
	for _, r := range rows {
		if got, err := db.Get(r.key); err != nil || !bytes.Equal(got, r.val) {
			res.fail("%s row %d: %q, %v", path, r.key, got, err)
		}
	}
	if n, err := db.Count(0, 1<<62); err != nil || n != len(rows) {
		res.fail("%s holds %d rows, %v; want %d", path, n, err, len(rows))
	}
}
