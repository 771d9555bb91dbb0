// DML access-path tests: UPDATE and DELETE find their rows through the
// scan planner's access path (index probe, or zone-pruned page walk),
// so the same statements against an indexed table and an unindexed
// twin must affect the same rows and leave the same state.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/adm-project/adm/internal/storage"
)

// dmlStep is one transaction of the differential stream: its
// statements ({t} names the table) and whether it ends in ROLLBACK.
type dmlStep struct {
	stmts    []string
	rollback bool
}

func autocommit(sql string) dmlStep { return dmlStep{stmts: []string{sql}} }

// dmlStream covers point, range and non-indexed WHEREs, IS [NOT] NULL,
// SET of the indexed key, repeated updates of one key in one
// transaction, DELETE then re-INSERT of a key, and ROLLBACK.
var dmlStream = []dmlStep{
	autocommit("UPDATE {t} SET v = 'p1' WHERE k = 17"),
	autocommit("UPDATE {t} SET f = 2.5 WHERE k >= 100 AND k < 140"),
	autocommit("DELETE FROM {t} WHERE k > 580"),
	autocommit("UPDATE {t} SET v = 'g3' WHERE g = 3"),
	autocommit("UPDATE {t} SET v = 'null-g' WHERE g IS NULL"),
	autocommit("DELETE FROM {t} WHERE k < 30 AND g IS NOT NULL"),
	autocommit("UPDATE {t} SET g = 4 WHERE g = 3 AND k > 300"),
	autocommit("UPDATE {t} SET v = 'le' WHERE k <= 35"),
	autocommit("DELETE FROM {t} WHERE k != 5 AND k < 33"),
	// SET of the indexed key: the old key must no longer match, the
	// new one must.
	autocommit("UPDATE {t} SET k = 5000 WHERE k = 40"),
	autocommit("UPDATE {t} SET v = 'moved' WHERE k = 5000"),
	autocommit("UPDATE {t} SET v = 'gone' WHERE k = 40"),
	autocommit("UPDATE {t} SET k = 7000 WHERE k >= 200 AND k <= 205"),
	autocommit("DELETE FROM {t} WHERE k = 7000"),
	// Two UPDATEs of one key inside one transaction: the second sees
	// the first's version.
	{stmts: []string{
		"UPDATE {t} SET v = 'first' WHERE k = 50",
		"UPDATE {t} SET v = 'second' WHERE k = 50",
		"UPDATE {t} SET k = 51 WHERE k = 50",
		"UPDATE {t} SET v = 'pair' WHERE k = 51",
	}},
	// DELETE then re-INSERT of one key, in one transaction and across
	// two.
	{stmts: []string{
		"DELETE FROM {t} WHERE k = 60",
		"INSERT INTO {t} VALUES (60, 1, 'again', 0.5)",
		"UPDATE {t} SET v = 'again2' WHERE k = 60",
	}},
	autocommit("DELETE FROM {t} WHERE k = 61"),
	autocommit("INSERT INTO {t} VALUES (61, NULL, 'back', 1.5)"),
	autocommit("UPDATE {t} SET g = 9 WHERE k = 61"),
	// ROLLBACK restores rows and index entries.
	{stmts: []string{
		"UPDATE {t} SET k = 8000 WHERE k = 70",
		"INSERT INTO {t} VALUES (9000, 2, 'rb', 0.0)",
		"DELETE FROM {t} WHERE k >= 300 AND k < 320",
		"UPDATE {t} SET v = 'rb' WHERE g = 2",
		"UPDATE {t} SET v = 'rb-own' WHERE k = 9000",
	}, rollback: true},
	autocommit("UPDATE {t} SET v = 'after-rb' WHERE k = 8000"),
	autocommit("UPDATE {t} SET v = 'after-rb' WHERE k = 9000"),
	autocommit("UPDATE {t} SET v = 'kept' WHERE k = 70"),
	autocommit("DELETE FROM {t} WHERE k >= 300 AND k < 310"),
	autocommit("UPDATE {t} SET f = 1.0"),
	autocommit("DELETE FROM {t} WHERE g = 5 AND k > 400"),
}

// seedTwins creates ix (indexed on k) and raw (no index) with the same
// rows: k clustered in insertion order, g cycling with NULLs, so the
// zone maps of raw prune k ranges.
func seedTwins(t *testing.T, eng *Engine) {
	t.Helper()
	for _, name := range []string{"ix", "raw"} {
		eng.MustExec(fmt.Sprintf("CREATE TABLE %s (k INT, g INT, v STRING, f FLOAT)", name))
	}
	eng.MustExec("CREATE INDEX ON ix (k)")
	for _, name := range []string{"ix", "raw"} {
		for base := 0; base < 600; base += 100 {
			vals := make([]string, 0, 100)
			for k := base; k < base+100; k++ {
				g := fmt.Sprint(k % 7)
				if k%11 == 0 {
					g = "NULL"
				}
				vals = append(vals, fmt.Sprintf("(%d, %s, 'v-%d', %d.25)", k, g, k, k))
			}
			eng.MustExec(fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", ")))
		}
	}
}

// tableState renders the rows sql returns to txn (nil = the raw,
// version-blind heap), sorted and joined.
func tableState(t *testing.T, eng *Engine, sql string, txn *storage.Txn) string {
	t.Helper()
	res, err := eng.ExecTxn(sql, txn)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// snapshotState is tableState in a fresh read-only snapshot.
func snapshotState(t *testing.T, eng *Engine, db *storage.DB, sql string) string {
	t.Helper()
	txn := db.Txns().Begin()
	defer func() { _ = txn.Rollback() }() // read-only snapshot
	return tableState(t, eng, sql, txn)
}

// indexServed reports whether the statement's WHERE plans to an index
// probe on table.
func indexServed(t *testing.T, eng *Engine, table, sql string) bool {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var where []Pred
	switch s := st.(type) {
	case *UpdateStmt:
		where = s.Where
	case *DeleteStmt:
		where = s.Where
	default:
		return false
	}
	plan, err := eng.planSelect(&SelectStmt{From: TableRef{Name: table}, Where: where, Limit: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan.scans[0].indexCol != ""
}

// runDMLTwins drives dmlStream against both twins — through
// transactions on a durable engine, or on the legacy nil-txn path (no
// ROLLBACK there) — and checks affected counts and final states match.
func runDMLTwins(t *testing.T, eng *Engine, db *storage.DB) {
	t.Helper()
	begin := func() *storage.Txn {
		if db == nil {
			return nil
		}
		return db.Txns().Begin()
	}
	indexed := 0
	for si, step := range dmlStream {
		if step.rollback && db == nil {
			continue
		}
		var affected [2][]int
		for ti, table := range []string{"ix", "raw"} {
			txn := begin()
			for _, tmpl := range step.stmts {
				sql := strings.ReplaceAll(tmpl, "{t}", table)
				if table == "ix" && indexServed(t, eng, table, sql) {
					indexed++
				}
				res, err := eng.ExecTxn(sql, txn)
				if err != nil {
					t.Fatalf("step %d %q: %v", si, sql, err)
				}
				affected[ti] = append(affected[ti], res.Affected)
			}
			if txn == nil {
				continue
			}
			end := txn.Commit
			if step.rollback {
				end = txn.Rollback
			}
			if err := end(); err != nil {
				t.Fatalf("step %d end on %s: %v", si, table, err)
			}
		}
		if fmt.Sprint(affected[0]) != fmt.Sprint(affected[1]) {
			t.Fatalf("step %d %q: affected ix=%v raw=%v", si, step.stmts, affected[0], affected[1])
		}
	}
	if indexed < 15 {
		t.Fatalf("only %d statements planned an index probe on ix; the stream no longer covers the index path", indexed)
	}
	read := begin()
	if read != nil {
		defer func() { _ = read.Rollback() }() // read-only snapshot
	}
	if ix, raw := tableState(t, eng, "SELECT * FROM ix", read), tableState(t, eng, "SELECT * FROM raw", read); ix != raw {
		t.Fatalf("final states differ:\nix:  %s\nraw: %s", ix, raw)
	}
	// The index agrees with the heap: every key's index probe returns
	// what the twin's page walk does, and rolled-back keys left no
	// entries behind.
	for _, k := range []int{5, 17, 35, 40, 50, 51, 60, 61, 70, 305, 315, 5000, 8000, 9000} {
		q := fmt.Sprintf("SELECT * FROM %%s WHERE k = %d", k)
		if a, b := tableState(t, eng, fmt.Sprintf(q, "ix"), read), tableState(t, eng, fmt.Sprintf(q, "raw"), read); a != b {
			t.Fatalf("k=%d: ix %s, raw %s", k, a, b)
		}
	}
	idx, _ := mustTable(t, eng, "ix").Index("k")
	for _, k := range []int64{8000, 9000} {
		if rids := idx.Search(storage.IntValue(k)); len(rids) != 0 {
			t.Fatalf("rolled-back key %d still has index entries %v", k, rids)
		}
	}
}

func mustTable(t *testing.T, eng *Engine, name string) *Table {
	t.Helper()
	tb, err := eng.Catalog().Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestDMLAccessPathDifferential runs the stream through transactions
// on a durable, checkpointed engine (zone maps built, so the twin's
// page walk prunes) and on a volatile engine's legacy path.
func TestDMLAccessPathDifferential(t *testing.T) {
	t.Run("txn", func(t *testing.T) {
		eng, db := newTxnEngine(t, 0, false)
		seedTwins(t, eng)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runDMLTwins(t, eng, db)
	})
	t.Run("legacy", func(t *testing.T) {
		eng := NewEngine(NewCatalog(256), nil, nil)
		seedTwins(t, eng)
		for _, name := range []string{"ix", "raw"} {
			eng.MustExec("ANALYZE " + name)
		}
		runDMLTwins(t, eng, nil)
	})
}

// TestDMLConflictThroughIndex: two transactions UPDATE one indexed key;
// the second claimer gets ErrWriteConflict, and once the first commits
// a fresh transaction finds the new version through the index.
func TestDMLConflictThroughIndex(t *testing.T) {
	eng, db := newTxnEngine(t, 50, true)
	const upd = "UPDATE kv SET v = '%s' WHERE k = 21"
	if !indexServed(t, eng, "kv", upd) {
		t.Fatal("point UPDATE on kv did not plan an index probe")
	}
	t1, t2 := db.Txns().Begin(), db.Txns().Begin()
	if _, err := eng.ExecTxn(fmt.Sprintf(upd, "first"), t1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecTxn(fmt.Sprintf(upd, "second"), t2); !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("second claimer err = %v, want ErrWriteConflict", err)
	}
	if err := t2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t3 := db.Txns().Begin()
	res, err := eng.ExecTxn(fmt.Sprintf(upd, "third"), t3)
	if err != nil {
		t.Fatalf("fresh txn after commit: %v", err)
	}
	if res.Affected != 1 {
		t.Fatalf("fresh txn affected %d rows, want 1", res.Affected)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotState(t, eng, db, "SELECT v FROM kv WHERE k = 21"); got != "[third]" {
		t.Fatalf("k=21 reads %s, want [third]", got)
	}
}

// TestDMLPointWritePages guards the access path by its cost: a point
// UPDATE on a 20k-row durable table fetches a small constant number
// of buffer pages — through the index, or through the zone-map veto
// on a clustered unindexed key — where a full walk would fetch every
// page of the table. The indexed table's keys are scattered over its
// pages, so the zone maps cannot stand in for a lost index probe.
func TestDMLPointWritePages(t *testing.T) {
	const rows, maxPages = 20000, 8
	for _, withIndex := range []bool{true, false} {
		name := "index"
		if !withIndex {
			name = "zonemap"
		}
		t.Run(name, func(t *testing.T) {
			eng, db := newTxnEngine(t, 0, withIndex)
			for base := 0; base < rows; base += 500 {
				vals := make([]string, 0, 500)
				for i := base; i < base+500; i++ {
					k := i
					if withIndex {
						k = i * 7919 % rows // 7919 is prime: a permutation of 0..rows-1
					}
					vals = append(vals, fmt.Sprintf("(%d, 'seed-%d')", k, k))
				}
				eng.MustExec("INSERT INTO kv VALUES " + strings.Join(vals, ", "))
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			heapPages := mustTable(t, eng, "kv").Heap.Pages()
			for _, k := range []int{777, 15001, 777} {
				before := db.Stats().Buffer
				txn := db.Txns().Begin()
				res, err := eng.ExecTxn(fmt.Sprintf("UPDATE kv SET v = 'w' WHERE k = %d", k), txn)
				if err != nil {
					t.Fatal(err)
				}
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
				after := db.Stats().Buffer
				fetched := after.Hits + after.Misses - before.Hits - before.Misses
				if res.Affected != 1 || fetched > maxPages {
					t.Fatalf("UPDATE k=%d: affected %d, fetched %d pages (max %d; the table has %d)",
						k, res.Affected, fetched, maxPages, heapPages)
				}
			}
		})
	}
}

// TestLegacyRowsClaimedInPlace: rows inserted through the legacy
// Engine.Exec path on a durable catalog can be updated by autocommit
// transactions one after another. Stored as plain records, each claim
// had to grow its record by the version header, and the first page
// without room failed with "page full".
func TestLegacyRowsClaimedInPlace(t *testing.T) {
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(), storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewDurableCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cat, nil, nil)
	eng.MustExec("CREATE TABLE acct (id INT, bal INT, note STRING)")
	eng.MustExec("CREATE INDEX ON acct (id)")
	for i := 0; i < 200; i++ {
		eng.MustExec(fmt.Sprintf("INSERT INTO acct VALUES (%d, %d, 'n%07d')", i, i, i))
	}
	for i := 0; i < 200; i++ {
		txn := db.Txns().Begin()
		if _, err := eng.ExecTxn(fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", i+1000, i), txn); err != nil {
			_ = txn.Rollback()
			t.Fatalf("update #%d (id=%d): %v", i+1, i, err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// A legacy UPDATE keeps the versioned form, so the row stays
	// claimable in place.
	eng.MustExec("UPDATE acct SET note = 'legacy' WHERE id = 7")
	txn := db.Txns().Begin()
	if _, err := eng.ExecTxn("UPDATE acct SET bal = 1 WHERE id = 7", txn); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotState(t, eng, db, "SELECT bal FROM acct WHERE bal >= 1000"); strings.Count(got, ";") != 198 {
		t.Fatalf("want 199 updated balances, got %s", got)
	}
}
