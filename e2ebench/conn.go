package main

import (
	"context"
	"fmt"
	"strings"

	"crdbserverless"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/wire"
)

// path is the route one operation takes into the program. The untraced run
// uses viaProxy only; the traced run interleaves the others so that the
// difference between nested paths isolates one layer (see peel).
type path int

const (
	// viaProxy is the user's path: proxy → SQL node → KV.
	viaProxy path = iota
	// viaWire connects straight to the tenant pod's listener, skipping the
	// proxy.
	viaWire
	// viaSession runs Session.Execute in-process over a timedSender,
	// skipping the proxy, the wire codec and the SQL node's serve loop.
	viaSession
	// viaPeeled is the resume workload's step-by-step cold start: registry
	// resume, orchestrator lookup, direct connect, first query.
	viaPeeled
)

func (p path) String() string {
	return [...]string{"proxy", "wire", "session", "peeled"}[p]
}

// result is a statement's outcome, whichever path ran it.
type result struct {
	rows     [][]sql.Datum
	affected int
}

// execer runs one SQL statement.
type execer interface {
	exec(ctx context.Context, q string, args ...sql.Datum) (result, error)
}

type wireExec struct{ c *wire.Client }

func (w wireExec) exec(_ context.Context, q string, args ...sql.Datum) (result, error) {
	res, err := w.c.Query(q, args...)
	if err != nil {
		return result{}, err
	}
	return result{rows: res.Rows, affected: res.RowsAffected}, nil
}

type sessionExec struct{ s *sql.Session }

func (s sessionExec) exec(ctx context.Context, q string, args ...sql.Datum) (result, error) {
	res, err := s.s.Execute(ctx, q, args...)
	if err != nil {
		return result{}, err
	}
	return result{rows: res.Rows, affected: res.RowsAffected}, nil
}

// tenantConns is one closed-loop client's set of routes into a tenant: the
// proxy connection every run uses, and for traced runs a direct wire
// connection to the tenant's SQL pod and an in-process timed session.
type tenantConns struct {
	proxy   *wire.Client
	direct  *wire.Client
	session *sql.Session
	timed   *timedSender
}

func openTenantConns(d *deployment, tenant string, traced bool) (*tenantConns, error) {
	c := &tenantConns{}
	var err error
	if c.proxy, err = d.srv.Connect(tenant, tenantPassword); err != nil {
		return nil, fmt.Errorf("connect %s through proxy: %w", tenant, err)
	}
	if !traced {
		return c, nil
	}
	pods := d.srv.Orchestrator(region).PodsForTenant(tenant)
	if len(pods) == 0 {
		c.close()
		return nil, fmt.Errorf("tenant %s has no SQL pod after connecting", tenant)
	}
	if c.direct, err = wire.Connect(pods[0].Node.Addr(), connParams(tenant)); err != nil {
		c.close()
		return nil, fmt.Errorf("connect %s directly: %w", tenant, err)
	}
	if c.session, c.timed, err = newTimedSession(d.srv, tenant, d.clock); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// on returns the execer for a path.
func (c *tenantConns) on(p path) execer {
	switch p {
	case viaWire:
		return wireExec{c.direct}
	case viaSession:
		return sessionExec{c.session}
	default:
		return wireExec{c.proxy}
	}
}

func (c *tenantConns) close() {
	for _, cl := range []*wire.Client{c.proxy, c.direct} {
		if cl != nil {
			_ = cl.Close() // the benchmark is done with the connection either way
		}
	}
}

const (
	tenantPassword = "bench"
	region         = crdbserverless.Region("us-central1")
)

func connParams(tenant string) map[string]string {
	return map[string]string{"tenant": tenant, "user": "app", "password": tenantPassword}
}

// valuesList renders "($1,$2,$3),($4,$5,$6),..." for rows×cols placeholders.
func valuesList(rows, cols int) string {
	var b strings.Builder
	n := 1
	for r := 0; r < rows; r++ {
		if r > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('(')
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "$%d", n)
			n++
		}
		b.WriteByte(')')
	}
	return b.String()
}

// insertRows loads rows into table through SQL, batch rows per statement.
func insertRows(ctx context.Context, e execer, table string, rows [][]sql.Datum, batch int) error {
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		var args []sql.Datum
		for _, r := range rows[lo:hi] {
			args = append(args, r...)
		}
		q := "INSERT INTO " + table + " VALUES " + valuesList(hi-lo, len(rows[lo]))
		if _, err := e.exec(ctx, q, args...); err != nil {
			return fmt.Errorf("load %s rows %d..%d: %w", table, lo, hi, err)
		}
	}
	return nil
}
