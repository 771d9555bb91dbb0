package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/adm-project/adm/internal/storage"
)

// class groups statements for per-class latency.
type class uint8

const (
	clsRead  class = iota // point SELECT by key
	clsWrite              // autocommit UPDATE or INSERT, commit included
	clsScan               // selective or wide range read
	clsAgg                // GROUP BY over a range, or top-k
	clsJoin               // fact⋈dim join-aggregate
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan", "agg", "join"}

// kind is a statement shape within a class. Kinds of one class can
// differ tenfold in cost (an INSERT against a full-scan UPDATE), so
// latency statistics that weigh or normalise by shape use kinds.
type kind uint8

const (
	kRead kind = iota
	kUpdate
	kInsert
	kRange
	kWide
	kGroup
	kTopK
	kJoin
	numKinds
)

var (
	kindNames = [numKinds]string{"read", "update", "insert", "range", "wide", "group", "topk", "join"}
	kindClass = [numKinds]class{clsRead, clsWrite, clsWrite, clsScan, clsScan, clsAgg, clsAgg, clsJoin}
	// kindShare is each kind's share of its workload's stream: the
	// generators draw kinds with it, and mixPercentile weighs by it.
	// point-read is all reads; point-write's shares are read, update
	// and insert; analytic's are the other five.
	kindShare = [numKinds]float64{kRead: 0.4, kUpdate: 0.4, kInsert: 0.2,
		kRange: 0.30, kWide: 0.15, kGroup: 0.20, kTopK: 0.15, kJoin: 0.20}
)

// pick draws one of kinds with probability kindShare (the last takes
// whatever the others leave).
func pick(r *rand.Rand, kinds ...kind) kind {
	x, acc := r.Float64(), 0.0
	for _, k := range kinds[:len(kinds)-1] {
		if acc += kindShare[k]; x < acc {
			return k
		}
	}
	return kinds[len(kinds)-1]
}

// op says what a statement's answer must be.
type op uint8

const (
	opRows    op = iota // the row multiset is fixed by the generated data
	opOrdered           // the row sequence is fixed by the generated data
	opGet               // exactly the row (key, last acknowledged value)
	opSet               // an UPDATE of one row to val
	opAdd               // an INSERT of one new row (key, val)
)

// stmt is one generated statement and the oracle for its answer.
type stmt struct {
	sql  string
	kind kind
	op   op
	key  int64  // opGet/opSet/opAdd
	val  int64  // opSet/opAdd
	rows int    // opRows/opOrdered: expected row count
	want uint64 // opRows/opOrdered: fingerprint of the expected rows
}

func (s *stmt) class() class { return kindClass[s.kind] }

// dataset is everything a workload generates from its seed: the
// statements that seed the store (replayed through a DBSession, as
// `admsqld -init` does), the fixed-count statement stream (statement j
// runs on connection j%2), and the oracle state.
type dataset struct {
	init   []string
	stream []stmt
	// owned is, per connection, the value of every key that connection
	// writes (point-write); keys are partitioned between connections.
	owned [2]map[int64]int64
	// final builds whole-table reads that must match at run end, from
	// the acknowledged state.
	final func(owned [2]map[int64]int64) []stmt
	// tables are the user tables (space amplification, page growth).
	tables []string
}

// spec fixes one workload: its generator and the numbers that size a
// run. trials is how many times an end-to-end run builds a fresh store
// and serves the whole stream on it; open-loop latencies and goodput
// are pooled over the trials, the other metrics are medians over them.
// A trial's closed-loop goodput moved by ±15% (point-write) and ±25%
// (analytic) between the trials of one run, so both make more, shorter
// trials than point-read; analytic's set-up takes about 4 s, which
// caps it at five.
// capacity is the closed-loop throughput measured when the workload
// was sized; it sets the closed phase's statement count so
// the phase lasts about a third of each trial. rate is the open-loop
// offered rate: about a quarter of capacity. At half of it, a host a
// fifth slower ran point-write at a utilisation near 0.7 by the end of
// the open loop, where queueing multiplies every slowdown; at a
// quarter, open-loop latency stays close to service time. point-read's
// is lower still, because a higher rate would space one connection's
// statements closer than Go's ~1 ms sleep granularity.
type spec struct {
	name     string
	trials   int
	rate     float64       // statements/s over both connections
	capacity float64       // statements/s, closed loop, at sizing
	limit    time.Duration // latency limit for goodput
	gen      func(seed int64, n int) *dataset
}

// phases returns the fixed statement counts of one trial of a run of
// the given length: warm-up, open loop, closed loop. A run makes
// w.trials trials; in each the open loop lasts two thirds of the trial
// and the closed loop about a third. Every count is even so each phase
// starts on connection 0.
func (w *spec) phases(seconds int) (warm, open, closed int) {
	even := func(x float64) int { return 2 * max(1, int(x/2)) }
	t := float64(seconds) / float64(w.trials)
	return even(w.capacity * 0.05 * t), even(w.rate * t * 2 / 3), even(w.capacity * t / 3)
}

var workloads = []*spec{
	{name: "point-read", trials: 3, rate: 1500, capacity: 32000, limit: 50 * time.Millisecond, gen: genPointRead},
	{name: "point-write", trials: 6, rate: 200, capacity: 800, limit: 50 * time.Millisecond, gen: genPointWrite},
	{name: "analytic", trials: 5, rate: 300, capacity: 1300, limit: 100 * time.Millisecond, gen: genAnalytic},
}

func lookup(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	pointReadRows  = 10000
	pointWriteRows = 5000
	factRows       = 4800
	factPad        = 950
	dimRows        = 1000
	insertBatch    = 100
)

// word returns n random lowercase letters.
func word(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// sqlLit renders a value as a SQL literal (generated strings hold
// letters and digits only, so no quoting is needed).
func sqlLit(v storage.Value) string {
	if v.Kind == storage.KindString {
		return "'" + v.Str + "'"
	}
	return v.String()
}

// insertSQL renders rows as batched multi-row INSERTs.
func insertSQL(table string, rows []storage.Tuple) []string {
	var out []string
	for lo := 0; lo < len(rows); lo += insertBatch {
		var b strings.Builder
		b.WriteString("INSERT INTO " + table + " VALUES ")
		for i, row := range rows[lo:min(lo+insertBatch, len(rows))] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			for k, v := range row {
				if k > 0 {
					b.WriteString(", ")
				}
				b.WriteString(sqlLit(v))
			}
			b.WriteByte(')')
		}
		out = append(out, b.String())
	}
	return out
}

// selectAll is a whole-table read expected to return rows.
func selectAll(table, cols string, rows []storage.Tuple) stmt {
	return stmt{sql: "SELECT " + cols + " FROM " + table, kind: kWide, op: opRows,
		rows: len(rows), want: fingerprint(rows, false)}
}

// genPointRead: uniform point SELECTs by indexed key on a table that
// fits the buffer pool.
func genPointRead(seed int64, n int) *dataset {
	r := rand.New(rand.NewSource(seed))
	rows := make([]storage.Tuple, pointReadRows)
	for i := range rows {
		rows[i] = storage.Tuple{storage.IntValue(int64(i)), storage.IntValue(r.Int63n(100)),
			storage.IntValue(r.Int63n(1e9)), storage.StringValue(word(r, 16))}
	}
	d := &dataset{tables: []string{"items"}}
	d.init = append([]string{"CREATE TABLE items (id INT, grp INT, val INT, name STRING)",
		"CREATE INDEX ON items (id)"}, insertSQL("items", rows)...)
	d.init = append(d.init, "ANALYZE items")
	d.stream = make([]stmt, n)
	for j := range d.stream {
		k := r.Intn(len(rows))
		d.stream[j] = stmt{sql: fmt.Sprintf("SELECT id, grp, val, name FROM items WHERE id = %d", k),
			kind: kRead, op: opRows, rows: 1, want: fingerprint(rows[k:k+1], false)}
	}
	all := selectAll("items", "id, grp, val, name", rows)
	d.final = func([2]map[int64]int64) []stmt { return []stmt{all} }
	return d
}

// note is point-write's fixed per-key text column.
func note(k int64) string { return fmt.Sprintf("n%07d", k) }

// genPointWrite: autocommit OLTP on a small indexed table: 40% point
// UPDATE, 20% INSERT, 40% point SELECT. Connection c owns the keys
// with k%2 == c, so the two never conflict and every final value is
// known.
func genPointWrite(seed int64, n int) *dataset {
	r := rand.New(rand.NewSource(seed))
	d := &dataset{tables: []string{"acct"}}
	var keys [2][]int64
	rows := make([]storage.Tuple, pointWriteRows)
	for i := range rows {
		k, v := int64(i), r.Int63n(1e9)
		rows[i] = storage.Tuple{storage.IntValue(k), storage.IntValue(v), storage.StringValue(note(k))}
		c := k % 2
		if d.owned[c] == nil {
			d.owned[c] = map[int64]int64{}
		}
		d.owned[c][k] = v
		keys[c] = append(keys[c], k)
	}
	d.init = append([]string{"CREATE TABLE acct (id INT, bal INT, note STRING)",
		"CREATE INDEX ON acct (id)"}, insertSQL("acct", rows)...)
	d.init = append(d.init, "ANALYZE acct")
	next := [2]int64{pointWriteRows, pointWriteRows + 1}
	d.stream = make([]stmt, n)
	for j := range d.stream {
		c := j % 2
		switch pick(r, kUpdate, kInsert, kRead) {
		case kUpdate:
			k, v := keys[c][r.Intn(len(keys[c]))], r.Int63n(1e9)
			d.stream[j] = stmt{sql: fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", v, k),
				kind: kUpdate, op: opSet, key: k, val: v}
		case kInsert:
			k, v := next[c], r.Int63n(1e9)
			next[c] += 2
			keys[c] = append(keys[c], k)
			d.stream[j] = stmt{sql: fmt.Sprintf("INSERT INTO acct VALUES (%d, %d, '%s')", k, v, note(k)),
				kind: kInsert, op: opAdd, key: k, val: v}
		default:
			k := keys[c][r.Intn(len(keys[c]))]
			d.stream[j] = stmt{sql: fmt.Sprintf("SELECT id, bal FROM acct WHERE id = %d", k),
				kind: kRead, op: opGet, key: k}
		}
	}
	d.final = func(owned [2]map[int64]int64) []stmt {
		var rows []storage.Tuple
		for _, m := range owned {
			for k, v := range m {
				rows = append(rows, storage.Tuple{storage.IntValue(k), storage.IntValue(v), storage.StringValue(note(k))})
			}
		}
		return []stmt{selectAll("acct", "id, bal, note", rows)}
	}
	return d
}

// genAnalytic: read-only statements over a fact table clustered on id
// that is larger than the buffer pool, plus a small dimension table.
func genAnalytic(seed int64, n int) *dataset {
	r := rand.New(rand.NewSource(seed))
	const regions, segs = 16, 8
	dim := make([]storage.Tuple, dimRows)
	seg := make([]int64, dimRows)
	for i := range dim {
		seg[i] = r.Int63n(segs)
		dim[i] = storage.Tuple{storage.IntValue(int64(i)), storage.IntValue(seg[i]), storage.StringValue(word(r, 12))}
	}
	// amount is a permutation scaled by 10 plus noise: distinct, so
	// top-k answers have no ties.
	perm := r.Perm(factRows)
	fact := make([]storage.Tuple, factRows)
	for i := range fact {
		fact[i] = storage.Tuple{storage.IntValue(int64(i)), storage.IntValue(r.Int63n(dimRows)),
			storage.IntValue(r.Int63n(regions)), storage.IntValue(int64(perm[i])*10 + r.Int63n(10)),
			storage.IntValue(r.Int63n(100)), storage.StringValue(word(r, factPad))}
	}
	d := &dataset{tables: []string{"sales", "cust"}}
	d.init = []string{"CREATE TABLE sales (id INT, cust INT, region INT, amount INT, qty INT, pad STRING)",
		"CREATE TABLE cust (cid INT, seg INT, name STRING)"}
	d.init = append(d.init, insertSQL("cust", dim)...)
	d.init = append(d.init, insertSQL("sales", fact)...)
	d.init = append(d.init, "ANALYZE sales", "ANALYZE cust")

	// byAmount[g] lists fact row indexes of region g (g == regions:
	// every row) in ascending amount order.
	byAmount := make([][]int, regions+1)
	for i, row := range fact {
		g := row[2].Int
		byAmount[g] = append(byAmount[g], i)
		byAmount[regions] = append(byAmount[regions], i)
	}
	for _, idx := range byAmount {
		sort.Slice(idx, func(a, b int) bool { return fact[idx[a]][3].Int < fact[idx[b]][3].Int })
	}
	rangeStart := func(width int) int { return r.Intn(factRows - width + 1) }

	d.stream = make([]stmt, n)
	for j := range d.stream {
		var s stmt
		switch pick(r, kRange, kWide, kGroup, kTopK, kJoin) {
		case kRange: // 1%-selective range scan
			w := factRows / 100
			a := rangeStart(w)
			var rows []storage.Tuple
			for _, f := range fact[a : a+w] {
				rows = append(rows, storage.Tuple{f[0], f[3]})
			}
			s = stmt{sql: fmt.Sprintf("SELECT id, amount FROM sales WHERE id >= %d AND id < %d", a, a+w),
				kind: kRange, op: opRows, rows: len(rows), want: fingerprint(rows, false)}
		case kWide: // wide-result range read
			const w = 1000
			a := rangeStart(w)
			var rows []storage.Tuple
			for _, f := range fact[a : a+w] {
				rows = append(rows, storage.Tuple{f[0], f[1], f[3], f[4]})
			}
			s = stmt{sql: fmt.Sprintf("SELECT id, cust, amount, qty FROM sales WHERE id >= %d AND id < %d", a, a+w),
				kind: kWide, op: opRows, rows: len(rows), want: fingerprint(rows, false)}
		case kGroup: // GROUP BY over a range
			w := factRows / 10
			a := rangeStart(w)
			sums, counts := make([]float64, regions), make([]int64, regions)
			for _, f := range fact[a : a+w] {
				sums[f[2].Int] += float64(f[3].Int)
				counts[f[2].Int]++
			}
			var rows []storage.Tuple
			for g := range sums {
				if counts[g] > 0 {
					rows = append(rows, storage.Tuple{storage.IntValue(int64(g)), storage.FloatValue(sums[g]), storage.IntValue(counts[g])})
				}
			}
			s = stmt{sql: fmt.Sprintf("SELECT region, SUM(amount), COUNT(*) FROM sales WHERE id >= %d AND id < %d GROUP BY region", a, a+w),
				kind: kGroup, op: opRows, rows: len(rows), want: fingerprint(rows, false)}
		case kTopK: // top-k over the whole table
			g, desc := r.Intn(regions+1), r.Intn(2) == 1
			idx := byAmount[g]
			var rows []storage.Tuple
			for i := 0; i < 10 && i < len(idx); i++ {
				f := fact[idx[i]]
				if desc {
					f = fact[idx[len(idx)-1-i]]
				}
				rows = append(rows, storage.Tuple{f[0], f[3]})
			}
			where, dir := "", ""
			if g < regions {
				where = fmt.Sprintf(" WHERE region = %d", g)
			}
			if desc {
				dir = " DESC"
			}
			s = stmt{sql: fmt.Sprintf("SELECT id, amount FROM sales%s ORDER BY amount%s LIMIT 10", where, dir),
				kind: kTopK, op: opOrdered, rows: len(rows), want: fingerprint(rows, true)}
		default: // fact⋈dim join-aggregate on a selective range
			w := factRows / 50
			a := rangeStart(w)
			sums, counts := make([]float64, segs), make([]int64, segs)
			for _, f := range fact[a : a+w] {
				sg := seg[f[1].Int]
				sums[sg] += float64(f[3].Int)
				counts[sg]++
			}
			var rows []storage.Tuple
			for g := range sums {
				if counts[g] > 0 {
					rows = append(rows, storage.Tuple{storage.IntValue(int64(g)), storage.FloatValue(sums[g]), storage.IntValue(counts[g])})
				}
			}
			s = stmt{sql: fmt.Sprintf("SELECT c.seg, SUM(s.amount), COUNT(*) FROM sales s JOIN cust c ON s.cust = c.cid "+
				"WHERE s.id >= %d AND s.id < %d GROUP BY c.seg", a, a+w),
				kind: kJoin, op: opRows, rows: len(rows), want: fingerprint(rows, false)}
		}
		d.stream[j] = s
	}
	final := []stmt{selectAll("sales", "id, cust, region, amount, qty, pad", fact),
		selectAll("cust", "cid, seg, name", dim)}
	d.final = func([2]map[int64]int64) []stmt { return final }
	return d
}
