package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"crdbserverless"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/wire"
)

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"oltp-point", "oltp-txn", "olap-scan", "resume"}

// newWorkload returns a fresh instance (an empty model) of the named
// workload.
func newWorkload(name string, cfg config) (workload, error) {
	scaled := func(n int) int {
		if v := int(float64(n) * cfg.size); v > 1 {
			return v
		}
		return 2
	}
	switch name {
	case "oltp-point":
		return &pointWorkload{seed: cfg.seed, rows: scaled(6000)}, nil
	case "oltp-txn":
		return &txnWorkload{seed: cfg.seed, accounts: scaled(4000)}, nil
	case "olap-scan":
		return &scanWorkload{seed: cfg.seed, facts: scaled(250), dims: 20, cats: 25}, nil
	case "resume":
		// More suspended tenants than the default warm pool of four holds.
		return &resumeWorkload{tenants: 8}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// benchTenant is the tenant the SQL workloads run in.
const benchTenant = "bench"

// createBenchTenant provisions the SQL workloads' tenant and returns an
// in-process session for loading it.
func createBenchTenant(ctx context.Context, d *deployment) (execer, error) {
	if _, err := d.srv.CreateTenant(ctx, benchTenant, crdbserverless.TenantOptions{Password: tenantPassword}); err != nil {
		return nil, fmt.Errorf("create tenant: %w", err)
	}
	s, err := d.srv.SQLSession(benchTenant)
	if err != nil {
		return nil, err
	}
	return sessionExec{s}, nil
}

func execAll(ctx context.Context, e execer, stmts ...string) error {
	for _, q := range stmts {
		if _, err := e.exec(ctx, q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// sqlWorker carries what every SQL-workload client shares: its routes into
// the tenant and its generator.
type sqlWorker struct {
	conns *tenantConns
	rng   *rand.Rand
	clock timeutil.Clock
}

func newSQLWorker(d *deployment, seed int64, i int, traced bool) (sqlWorker, error) {
	conns, err := openTenantConns(d, benchTenant, traced)
	if err != nil {
		return sqlWorker{}, err
	}
	return sqlWorker{conns: conns, rng: randutil.NewRand(seed*1000 + int64(i)), clock: d.clock}, nil
}

// begin resets the path's send tally and starts the operation's clock.
func (w *sqlWorker) begin(p path) time.Time {
	if p == viaSession {
		w.conns.timed.take()
	}
	return w.clock.Now()
}

// end stops the clock and collects the send tally.
func (w *sqlWorker) end(rec *opRecord, start time.Time) {
	rec.ms = float64(w.clock.Since(start)) / 1e6
	if rec.path == viaSession {
		rec.send = w.conns.timed.take()
	}
}

func (w *sqlWorker) close() { w.conns.close() }

func sqlPaths() []path { return []path{viaProxy, viaWire, viaSession} }

// ---- oltp-point ------------------------------------------------------------

// pointValueBytes is the inline value size: under the 1 KiB value-log
// threshold, so values stay in the sstables.
const pointValueBytes = 900

// pointWorkload: 90% primary-key point SELECTs, 10% single-row UPDATEs,
// uniform keys over a table larger than a node's 4 MiB memtable.
type pointWorkload struct {
	seed int64
	rows int
	// versions[k] is the version last acknowledged for key k. Client
	// k%oltpClients owns key k for both reads and writes, so with concurrent
	// clients each read still has exactly one correct answer.
	versions []int64
	// unsure[k] is set when a write to k failed: it may or may not have
	// applied, and the next read settles it.
	unsure []bool
}

func (w *pointWorkload) primary() string { return "read" }
func (w *pointWorkload) clients() int    { return oltpClients }
func (w *pointWorkload) paths() []path   { return sqlPaths() }

func (w *pointWorkload) load(ctx context.Context, d *deployment) error {
	e, err := createBenchTenant(ctx, d)
	if err != nil {
		return err
	}
	if err := execAll(ctx, e, "CREATE TABLE kv (k INT PRIMARY KEY, ver INT, v STRING)"); err != nil {
		return err
	}
	w.versions = make([]int64, w.rows)
	w.unsure = make([]bool, w.rows)
	rows := make([][]sql.Datum, w.rows)
	for k := range rows {
		rows[k] = []sql.Datum{sql.DInt(int64(k)), sql.DInt(0), sql.DString(payload(w.seed, int64(k), 0, pointValueBytes))}
	}
	return insertRows(ctx, e, "kv", rows, 50)
}

type pointWorker struct {
	sqlWorker
	wl   *pointWorkload
	keys []int64
}

func (w *pointWorkload) worker(_ context.Context, d *deployment, i int, traced bool) (worker, error) {
	base, err := newSQLWorker(d, w.seed, i, traced)
	if err != nil {
		return nil, err
	}
	pw := &pointWorker{sqlWorker: base, wl: w}
	for k := i; k < w.rows; k += oltpClients {
		pw.keys = append(pw.keys, int64(k))
	}
	return pw, nil
}

func (w *pointWorker) step(ctx context.Context, p path) (opRecord, error) {
	k := w.keys[w.rng.Intn(len(w.keys))]
	e := w.conns.on(p)
	if w.rng.Intn(10) == 0 {
		ver := w.wl.versions[k] + 1
		v := payload(w.wl.seed, k, ver, pointValueBytes)
		rec := opRecord{kind: "write", path: p}
		start := w.begin(p)
		res, err := e.exec(ctx, "UPDATE kv SET ver = $1, v = $2 WHERE k = $3", sql.DInt(ver), sql.DString(v), sql.DInt(k))
		w.end(&rec, start)
		switch {
		case err != nil:
			rec.fail(err)
			w.wl.unsure[k] = true
		case res.affected != 1:
			return rec, fmt.Errorf("UPDATE of key %d affected %d rows, want 1", k, res.affected)
		default:
			w.wl.versions[k] = ver
			rec.userBytes = pointValueBytes + 16
		}
		return rec, nil
	}
	rec := opRecord{kind: "read", path: p}
	start := w.begin(p)
	res, err := e.exec(ctx, "SELECT ver, v FROM kv WHERE k = $1", sql.DInt(k))
	w.end(&rec, start)
	if err != nil {
		rec.fail(err)
		return rec, nil
	}
	if len(res.rows) != 1 || len(res.rows[0]) != 2 {
		return rec, fmt.Errorf("point read of key %d returned %d rows", k, len(res.rows))
	}
	got := res.rows[0][0].I
	want := w.wl.versions[k]
	if w.wl.unsure[k] && (got == want || got == want+1) {
		w.wl.versions[k], w.wl.unsure[k], want = got, false, got
	}
	if got != want || res.rows[0][1].S != payload(w.wl.seed, k, want, pointValueBytes) {
		return rec, fmt.Errorf("point read of key %d returned version %d, last written %d", k, got, want)
	}
	return rec, nil
}

func (w *pointWorkload) verify(ctx context.Context, d *deployment) error {
	s, err := d.srv.SQLSession(benchTenant)
	if err != nil {
		return err
	}
	res, err := s.Execute(ctx, "SELECT k, ver FROM kv ORDER BY k")
	if err != nil {
		return fmt.Errorf("final scan: %w", err)
	}
	if len(res.Rows) != w.rows {
		return fmt.Errorf("kv holds %d rows, loaded %d", len(res.Rows), w.rows)
	}
	for i, r := range res.Rows {
		if r[0].I != int64(i) || (r[1].I != w.versions[i] && !w.unsure[i]) {
			return fmt.Errorf("kv row %d is (%d, ver %d), want (%d, ver %d)", i, r[0].I, r[1].I, i, w.versions[i])
		}
	}
	return nil
}

// ---- oltp-txn --------------------------------------------------------------

const (
	// accountPadBytes pads each account row so that an UPDATE rewrites
	// about as much as the history INSERT, which keeps the memtables
	// flushing inside a ten-second window.
	accountPadBytes  = 900
	historyNoteBytes = 900
	initialBalance   = 1000
	maxTxnAttempts   = 10
)

// txnWorkload: explicit transfers between uniformly chosen accounts, each
// BEGIN; two reads; two updates; a history insert; COMMIT.
type txnWorkload struct {
	seed     int64
	accounts int

	mu        sync.Mutex
	balances  []int64
	committed int64
}

func (w *txnWorkload) primary() string { return "txn" }
func (w *txnWorkload) clients() int    { return oltpClients }
func (w *txnWorkload) paths() []path   { return sqlPaths() }

func (w *txnWorkload) load(ctx context.Context, d *deployment) error {
	e, err := createBenchTenant(ctx, d)
	if err != nil {
		return err
	}
	if err := execAll(ctx, e,
		"CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, pad STRING)",
		"CREATE TABLE history (id INT PRIMARY KEY, src INT, dst INT, amount INT, note STRING)",
	); err != nil {
		return err
	}
	w.balances = make([]int64, w.accounts)
	rows := make([][]sql.Datum, w.accounts)
	for i := range rows {
		w.balances[i] = initialBalance
		rows[i] = []sql.Datum{sql.DInt(int64(i)), sql.DInt(initialBalance), sql.DString(payload(w.seed, int64(i), -1, accountPadBytes))}
	}
	return insertRows(ctx, e, "accounts", rows, 50)
}

type txnWorker struct {
	sqlWorker
	wl  *txnWorkload
	id  int64
	seq int64
	// jitter draws retry backoffs apart from the statement generator, so
	// conflicts do not change which statements a seed produces.
	jitter *rand.Rand
}

func (w *txnWorkload) worker(_ context.Context, d *deployment, i int, traced bool) (worker, error) {
	base, err := newSQLWorker(d, w.seed, i, traced)
	if err != nil {
		return nil, err
	}
	return &txnWorker{sqlWorker: base, wl: w, id: int64(i), jitter: randutil.NewRand(w.seed*1000 + int64(i) + 500)}, nil
}

func (w *txnWorker) step(ctx context.Context, p path) (opRecord, error) {
	src := int64(w.rng.Intn(w.wl.accounts))
	dst := int64(w.rng.Intn(w.wl.accounts - 1))
	if dst >= src {
		dst++
	}
	amount := int64(1 + w.rng.Intn(100))
	w.seq++
	hid := w.id<<40 | w.seq
	note := payload(w.wl.seed, hid, 1, historyNoteBytes)
	e := w.conns.on(p)

	rec := opRecord{kind: "txn", path: p}
	start := w.begin(p)
	var err error
	for attempt := 1; ; attempt++ {
		var wrong error
		if wrong, err = transfer(ctx, e, src, dst, amount, hid, note); wrong != nil {
			return rec, wrong
		}
		if err == nil || attempt == maxTxnAttempts {
			break
		}
		// The failed statement already rolled the SQL transaction back;
		// the retry begins a new one after a jittered exponential backoff,
		// long enough for the conflicting transaction to finish.
		rec.retries++
		shift := attempt - 1
		if shift > 5 {
			shift = 5
		}
		w.clock.Sleep(time.Duration(250<<shift)*time.Microsecond + time.Duration(w.jitter.Intn(250))*time.Microsecond)
	}
	w.end(&rec, start)
	if err != nil {
		rec.fail(err)
		return rec, nil
	}
	w.wl.mu.Lock()
	w.wl.balances[src] -= amount
	w.wl.balances[dst] += amount
	w.wl.committed++
	w.wl.mu.Unlock()
	rec.userBytes = 2*(16+accountPadBytes) + 32 + historyNoteBytes
	return rec, nil
}

// transfer runs one attempt. wrong reports an answer that cannot be right;
// err a statement the program refused (a conflict the client retries).
func transfer(ctx context.Context, e execer, src, dst, amount, hid int64, note string) (wrong, err error) {
	if _, err = e.exec(ctx, "BEGIN"); err != nil {
		return nil, err
	}
	for _, id := range []int64{src, dst} {
		res, err := e.exec(ctx, "SELECT balance FROM accounts WHERE id = $1", sql.DInt(id))
		if err != nil {
			return nil, err
		}
		if len(res.rows) != 1 {
			return fmt.Errorf("account %d read returned %d rows", id, len(res.rows)), nil
		}
	}
	for _, u := range []struct{ id, delta int64 }{{src, -amount}, {dst, amount}} {
		res, err := e.exec(ctx, "UPDATE accounts SET balance = balance + $1 WHERE id = $2", sql.DInt(u.delta), sql.DInt(u.id))
		if err != nil {
			return nil, err
		}
		if res.affected != 1 {
			return fmt.Errorf("UPDATE of account %d affected %d rows", u.id, res.affected), nil
		}
	}
	if _, err = e.exec(ctx, "INSERT INTO history VALUES ($1, $2, $3, $4, $5)",
		sql.DInt(hid), sql.DInt(src), sql.DInt(dst), sql.DInt(amount), sql.DString(note)); err != nil {
		return nil, err
	}
	_, err = e.exec(ctx, "COMMIT")
	return nil, err
}

func (w *txnWorkload) verify(ctx context.Context, d *deployment) error {
	s, err := d.srv.SQLSession(benchTenant)
	if err != nil {
		return err
	}
	res, err := s.Execute(ctx, "SELECT id, balance FROM accounts ORDER BY id")
	if err != nil {
		return fmt.Errorf("final balances: %w", err)
	}
	if len(res.Rows) != w.accounts {
		return fmt.Errorf("accounts holds %d rows, loaded %d", len(res.Rows), w.accounts)
	}
	var sum int64
	for i, r := range res.Rows {
		sum += r[1].I
		if r[1].I != w.balances[i] {
			return fmt.Errorf("account %d balance %d, acknowledged transfers leave %d", i, r[1].I, w.balances[i])
		}
	}
	if want := int64(w.accounts) * initialBalance; sum != want {
		return fmt.Errorf("balance sum %d, want %d", sum, want)
	}
	res, err = s.Execute(ctx, "SELECT COUNT(*) FROM history")
	if err != nil {
		return fmt.Errorf("history count: %w", err)
	}
	if got := res.Rows[0][0].I; got != w.committed {
		return fmt.Errorf("history holds %d rows, %d transfers committed", got, w.committed)
	}
	return nil
}

// ---- olap-scan -------------------------------------------------------------

// scanWorkload: a small fact table with a secondary index and a dimension
// table, both resident in the memtable, queried by reports of three
// queries: a full-scan filtered aggregate, an index-lookup hash join, and
// ORDER BY … LIMIT.
type scanWorkload struct {
	seed              int64
	facts, dims, cats int
	// The model: the generated rows.
	factCat, factDim, factAmount []int64
	dimRegion                    []string
}

var scanRegions = []string{"amer", "apac", "emea", "latam"}

func (w *scanWorkload) primary() string { return "scan" }

// clients is one analyst session. With two, the scans queue behind each
// other on two cores and p99 follows the host's load: on a shared two-core
// VM, six runs each, p99's IQR/median was 0.25 with two clients and 0.07
// with one.
func (w *scanWorkload) clients() int  { return 1 }
func (w *scanWorkload) paths() []path { return sqlPaths() }

func (w *scanWorkload) load(ctx context.Context, d *deployment) error {
	e, err := createBenchTenant(ctx, d)
	if err != nil {
		return err
	}
	if err := execAll(ctx, e,
		"CREATE TABLE dim (id INT PRIMARY KEY, region STRING, name STRING)",
		"CREATE TABLE fact (id INT PRIMARY KEY, cat INT, dim_id INT, amount INT, note STRING)",
		"CREATE INDEX fact_cat ON fact (cat)",
	); err != nil {
		return err
	}
	rng := randutil.NewRand(w.seed)
	dimRows := make([][]sql.Datum, w.dims)
	for i := range dimRows {
		r := scanRegions[rng.Intn(len(scanRegions))]
		w.dimRegion = append(w.dimRegion, r)
		dimRows[i] = []sql.Datum{sql.DInt(int64(i)), sql.DString(r), sql.DString(fmt.Sprintf("dim-%02d", i))}
	}
	factRows := make([][]sql.Datum, w.facts)
	for i := range factRows {
		c, dm, amt := int64(rng.Intn(w.cats)), int64(rng.Intn(w.dims)), int64(1+rng.Intn(1000))
		w.factCat = append(w.factCat, c)
		w.factDim = append(w.factDim, dm)
		w.factAmount = append(w.factAmount, amt)
		factRows[i] = []sql.Datum{sql.DInt(int64(i)), sql.DInt(c), sql.DInt(dm), sql.DInt(amt), sql.DString(payload(w.seed, int64(i), 2, 24))}
	}
	if err := insertRows(ctx, e, "dim", dimRows, 50); err != nil {
		return err
	}
	return insertRows(ctx, e, "fact", factRows, 100)
}

type scanWorker struct {
	sqlWorker
	wl *scanWorkload
}

func (w *scanWorkload) worker(_ context.Context, d *deployment, i int, traced bool) (worker, error) {
	base, err := newSQLWorker(d, w.seed, i, traced)
	if err != nil {
		return nil, err
	}
	return &scanWorker{sqlWorker: base, wl: w}, nil
}

const (
	scanAggQuery  = "SELECT COUNT(*), SUM(amount) FROM fact WHERE amount > $1"
	scanJoinQuery = "SELECT d.region AS region, COUNT(*), SUM(f.amount) FROM fact AS f JOIN dim AS d ON f.dim_id = d.id WHERE f.cat = $1 GROUP BY d.region ORDER BY region"
	scanTopQuery  = "SELECT id, amount FROM fact WHERE dim_id = $1 ORDER BY amount DESC, id LIMIT 10"
)

// step runs one report: the aggregate, the join and the top-k query, one
// after another on the same connection, timed as a whole. The join costs
// about a quarter of either full scan, so timing the queries one by one
// would put the median on the lower tail of the full scans, where it
// moves with the width of their spread rather than with their cost.
func (w *scanWorker) step(ctx context.Context, p path) (opRecord, error) {
	queries := [...]string{scanAggQuery, scanJoinQuery, scanTopQuery}
	args := [...]int64{int64(w.rng.Intn(900)), int64(w.rng.Intn(w.wl.cats)), int64(w.rng.Intn(w.wl.dims))}
	e := w.conns.on(p)
	rec := opRecord{kind: "scan", path: p}
	var rows [len(queries)][][]sql.Datum
	start := w.begin(p)
	for kind, q := range queries {
		res, err := e.exec(ctx, q, sql.DInt(args[kind]))
		if err != nil {
			w.end(&rec, start)
			rec.fail(err)
			return rec, nil
		}
		rows[kind] = res.rows
	}
	w.end(&rec, start)
	for kind, q := range queries {
		if got, want := render(rows[kind]), w.wl.expect(kind, args[kind]); got != want {
			return rec, fmt.Errorf("%s [$1=%d] returned %s, model says %s", q, args[kind], got, want)
		}
	}
	return rec, nil
}

// expect computes a query's answer from the generated rows.
func (w *scanWorkload) expect(kind int, arg int64) string {
	var rows [][]int64
	switch kind {
	case 0:
		var n, sum int64
		for i, a := range w.factAmount {
			if a > arg {
				n++
				sum += w.factAmount[i]
			}
		}
		return fmt.Sprintf("[[%d %d]]", n, sum)
	case 1:
		type agg struct{ n, sum int64 }
		by := map[string]*agg{}
		for i, c := range w.factCat {
			if c != arg {
				continue
			}
			r := w.dimRegion[w.factDim[i]]
			if by[r] == nil {
				by[r] = &agg{}
			}
			by[r].n++
			by[r].sum += w.factAmount[i]
		}
		var out string
		for _, r := range scanRegions { // sorted, as ORDER BY d.region
			if a := by[r]; a != nil {
				out += fmt.Sprintf("[%s %d %d]", r, a.n, a.sum)
			}
		}
		return "[" + out + "]"
	default:
		for i, dm := range w.factDim {
			if dm == arg {
				rows = append(rows, []int64{int64(i), w.factAmount[i]})
			}
		}
		sort.Slice(rows, func(a, b int) bool {
			if rows[a][1] != rows[b][1] {
				return rows[a][1] > rows[b][1]
			}
			return rows[a][0] < rows[b][0]
		})
		if len(rows) > 10 {
			rows = rows[:10]
		}
		out := ""
		for _, r := range rows {
			out += fmt.Sprintf("[%d %d]", r[0], r[1])
		}
		return "[" + out + "]"
	}
}

// render prints result rows the way expect prints the model's.
func render(rows [][]sql.Datum) string {
	out := "["
	for _, r := range rows {
		out += "["
		for i, v := range r {
			if i > 0 {
				out += " "
			}
			out += v.String()
		}
		out += "]"
	}
	return out + "]"
}

func (w *scanWorkload) verify(ctx context.Context, d *deployment) error {
	s, err := d.srv.SQLSession(benchTenant)
	if err != nil {
		return err
	}
	res, err := s.Execute(ctx, "SELECT COUNT(*) FROM fact")
	if err != nil {
		return fmt.Errorf("fact count: %w", err)
	}
	if got := res.Rows[0][0].I; got != int64(w.facts) {
		return fmt.Errorf("fact holds %d rows, loaded %d", got, w.facts)
	}
	return nil
}

// ---- resume ----------------------------------------------------------------

// resumeWorkload cycles its clients over suspended tenants: each step
// suspends a tenant, then times connect-through-the-proxy plus the first
// SELECT, which must return the tenant's own row.
type resumeWorkload struct {
	tenants int
	names   []string
}

const resumeQuery = "SELECT name FROM t WHERE id = 1"

func (w *resumeWorkload) primary() string { return "resume" }
func (w *resumeWorkload) clients() int    { return oltpClients }
func (w *resumeWorkload) paths() []path   { return []path{viaProxy, viaPeeled} }

func (w *resumeWorkload) load(ctx context.Context, d *deployment) error {
	for i := 0; i < w.tenants; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		if _, err := d.srv.CreateTenant(ctx, name, crdbserverless.TenantOptions{Password: tenantPassword}); err != nil {
			return fmt.Errorf("create tenant %s: %w", name, err)
		}
		s, err := d.srv.SQLSession(name)
		if err != nil {
			return err
		}
		e := sessionExec{s}
		if err := execAll(ctx, e, "CREATE TABLE t (id INT PRIMARY KEY, name STRING)"); err != nil {
			return err
		}
		if _, err := e.exec(ctx, "INSERT INTO t VALUES (1, $1)", sql.DString(name)); err != nil {
			return err
		}
		if err := d.srv.Suspend(ctx, name); err != nil {
			return fmt.Errorf("suspend %s: %w", name, err)
		}
		w.names = append(w.names, name)
	}
	return nil
}

type resumeWorker struct {
	d       *deployment
	names   []string
	next    int
	timed   map[string]*timedSender
	session map[string]*sql.Session
}

func (w *resumeWorkload) worker(_ context.Context, d *deployment, i int, traced bool) (worker, error) {
	rw := &resumeWorker{d: d, timed: map[string]*timedSender{}, session: map[string]*sql.Session{}}
	for t := i; t < len(w.names); t += oltpClients {
		rw.names = append(rw.names, w.names[t])
	}
	if len(rw.names) == 0 {
		return nil, fmt.Errorf("resume client %d has no tenant", i)
	}
	if traced {
		for _, name := range rw.names {
			s, timed, err := newTimedSession(d.srv, name, d.clock)
			if err != nil {
				return nil, err
			}
			rw.session[name], rw.timed[name] = s, timed
		}
	}
	return rw, nil
}

func (w *resumeWorker) close() {}

func (w *resumeWorker) step(ctx context.Context, p path) (opRecord, error) {
	name := w.names[w.next]
	w.next = (w.next + 1) % len(w.names)
	rec := opRecord{kind: "resume", path: p}
	refused := func(err error) (opRecord, error) {
		rec.fail(err)
		return rec, nil
	}
	if err := w.d.srv.Suspend(ctx, name); err != nil {
		return refused(err)
	}
	orch := w.d.srv.Orchestrator(region)
	rec.warmMiss = orch.WarmCount() == 0
	clock := w.d.clock
	start := clock.Now()
	lap := func() float64 {
		now := clock.Now()
		ms := float64(now.Sub(start)) / 1e6
		start = now
		return ms
	}
	if p == viaProxy {
		c, err := w.d.srv.Connect(name, tenantPassword)
		if err != nil {
			return refused(err)
		}
		defer c.Close()
		res, err := wireExec{c}.exec(ctx, resumeQuery)
		rec.ms = lap()
		if err != nil {
			return refused(err)
		}
		return rec, checkTenantRow(name, res)
	}

	// The peeled cold start: each step the proxy's Lookup would run, timed
	// on its own, then the first statement, a warm repeat, and the same
	// statement in-process over a timed sender.
	parts := &rec.resume
	if err := w.d.srv.Registry().Resume(ctx, name); err != nil {
		return refused(err)
	}
	parts.resume = lap()
	backends, err := orch.Lookup(ctx, name)
	if err == nil && len(backends) == 0 {
		err = fmt.Errorf("lookup of %s returned no SQL pod", name)
	}
	if err != nil {
		return refused(err)
	}
	parts.lookup = lap()
	c, err := wire.Connect(backends[0].Addr, connParams(name))
	if err != nil {
		return refused(err)
	}
	defer c.Close()
	parts.connect = lap()
	e := wireExec{c}
	first, err := e.exec(ctx, resumeQuery)
	parts.first = lap()
	rec.ms = parts.resume + parts.lookup + parts.connect + parts.first
	if err != nil {
		return refused(err)
	}
	if err := checkTenantRow(name, first); err != nil {
		return rec, err
	}
	warm, err := e.exec(ctx, resumeQuery)
	parts.warm = lap()
	if err != nil {
		return refused(err)
	}
	if err := checkTenantRow(name, warm); err != nil {
		return rec, err
	}
	w.timed[name].take()
	lap()
	inproc, err := sessionExec{w.session[name]}.exec(ctx, resumeQuery)
	parts.exec = lap()
	rec.send = w.timed[name].take()
	if err != nil {
		return refused(err)
	}
	return rec, checkTenantRow(name, inproc)
}

func checkTenantRow(name string, res result) error {
	if len(res.rows) != 1 || len(res.rows[0]) != 1 || res.rows[0][0].S != name {
		return fmt.Errorf("first query on %s returned %s, want [[%s]]", name, render(res.rows), name)
	}
	return nil
}

func (w *resumeWorkload) verify(ctx context.Context, d *deployment) error {
	for _, name := range w.names {
		s, err := d.srv.SQLSession(name)
		if err != nil {
			return err
		}
		res, err := sessionExec{s}.exec(ctx, resumeQuery)
		if err != nil {
			return fmt.Errorf("final read on %s: %w", name, err)
		}
		if err := checkTenantRow(name, res); err != nil {
			return err
		}
	}
	return nil
}
