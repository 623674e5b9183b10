package sql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/trace"
	"crdbserverless/internal/txn"
)

// SQL-side CPU accounting (directly measurable per tenant since SQL nodes
// are single-tenant, §5.2.1). Charged per row processed, per aggregate
// update, and — in separate-process deployments — per response byte
// unmarshaled from the KV layer.
const (
	perRowCPUSeconds       = 2e-6
	perAggUpdateCPUSeconds = 5e-7
	perByteUnmarshalCPU    = 15e-9
)

// scanPageSize bounds rows fetched per KV batch, exercising the resumption
// markers of §5.1.4.
const scanPageSize = 4096

// ExecutorConfig configures an Executor.
type ExecutorConfig struct {
	// Colocated marks the traditional deployment (SQL and KV in one
	// process): scans skip cross-process marshaling on both sides (§6.1.2).
	Colocated bool
	// FilterPushdown compiles eligible WHERE conjuncts into KV-evaluated
	// row filters on full-table-scan plans (the §8 future-work
	// optimization). Requires sql.KVRowDecoder registered on the cluster.
	FilterPushdown bool
	// Obs, when non-nil, receives per-tenant statement outcomes and
	// latencies (sql.tenant_queries, sql.tenant_exec_latency, and the
	// tenant's SLO/window series).
	Obs *tenantobs.Plane
}

// Executor compiles and runs SQL statements for one tenant.
type Executor struct {
	catalog *Catalog
	coord   *txn.Coordinator
	tenant  keys.TenantID
	cfg     ExecutorConfig

	mu struct {
		sync.Mutex
		sqlCPUSeconds float64
		rowsProcessed int64
	}
}

// NewExecutor returns an executor over the catalog's tenant.
func NewExecutor(catalog *Catalog, coord *txn.Coordinator, cfg ExecutorConfig) *Executor {
	return &Executor{catalog: catalog, coord: coord, tenant: catalog.Tenant(), cfg: cfg}
}

// Result is the outcome of a statement.
type Result struct {
	Columns      []string
	Rows         [][]Datum
	RowsAffected int
}

// SQLCPUSeconds returns the cumulative directly-measured SQL CPU.
func (e *Executor) SQLCPUSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mu.sqlCPUSeconds
}

// RowsProcessed returns the cumulative rows flowed through the executor.
func (e *Executor) RowsProcessed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mu.rowsProcessed
}

func (e *Executor) chargeRows(n int) {
	e.mu.Lock()
	e.mu.sqlCPUSeconds += float64(n) * perRowCPUSeconds
	e.mu.rowsProcessed += int64(n)
	e.mu.Unlock()
}

func (e *Executor) chargeAgg(n int) {
	e.mu.Lock()
	e.mu.sqlCPUSeconds += float64(n) * perAggUpdateCPUSeconds
	e.mu.Unlock()
}

func (e *Executor) chargeUnmarshal(bytes int64) {
	if e.cfg.Colocated {
		return
	}
	e.mu.Lock()
	e.mu.sqlCPUSeconds += float64(bytes) * perByteUnmarshalCPU
	e.mu.Unlock()
}

// ExecuteStmt runs a parsed statement. When tx is nil the statement runs in
// its own (retried) implicit transaction; otherwise it joins tx.
func (e *Executor) ExecuteStmt(ctx context.Context, stmt Statement, args []Datum, tx *txn.Txn) (*Result, error) {
	var start time.Time
	if e.cfg.Obs != nil {
		start = e.cfg.Obs.Now()
	}
	res, err := e.executeStmt(ctx, stmt, args, tx)
	if e.cfg.Obs != nil {
		e.cfg.Obs.QueryDone(e.tenant, e.cfg.Obs.Now().Sub(start), err != nil)
	}
	return res, err
}

func (e *Executor) executeStmt(ctx context.Context, stmt Statement, args []Datum, tx *txn.Txn) (*Result, error) {
	ctx, sp := trace.StartSpan(ctx, "sql.exec")
	defer sp.Finish()
	sp.SetAttr("sql.stmt", strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*sql."))
	switch s := stmt.(type) {
	case *CreateTable:
		if _, err := e.catalog.CreateTable(ctx, s); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndex:
		return e.createIndex(ctx, s)
	case *DropTable:
		return e.dropTable(ctx, s)
	case *ShowTables:
		names, err := e.catalog.List(ctx)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"table_name"}}
		for _, n := range names {
			res.Rows = append(res.Rows, []Datum{DString(n)})
		}
		return res, nil
	case *Insert:
		return e.runMaybeTxn(ctx, tx, func(ctx context.Context, t *txn.Txn) (*Result, error) {
			return e.insert(ctx, t, s, args)
		})
	case *Select:
		return e.runMaybeTxn(ctx, tx, func(ctx context.Context, t *txn.Txn) (*Result, error) {
			return e.selectStmt(ctx, t, s, args)
		})
	case *Update:
		return e.runMaybeTxn(ctx, tx, func(ctx context.Context, t *txn.Txn) (*Result, error) {
			return e.update(ctx, t, s, args)
		})
	case *Delete:
		return e.runMaybeTxn(ctx, tx, func(ctx context.Context, t *txn.Txn) (*Result, error) {
			return e.delete(ctx, t, s, args)
		})
	default:
		return nil, fmt.Errorf("sql: statement %T must be executed by the session", stmt)
	}
}

// runMaybeTxn executes fn in tx, or in a fresh retried implicit transaction.
func (e *Executor) runMaybeTxn(ctx context.Context, tx *txn.Txn, fn func(context.Context, *txn.Txn) (*Result, error)) (*Result, error) {
	if tx != nil {
		return fn(ctx, tx)
	}
	var res *Result
	err := e.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		var err error
		res, err = fn(ctx, t)
		return err
	})
	return res, err
}

// scanSpan reads all rows in span through paginated KV scans.
func (e *Executor) scanSpan(ctx context.Context, t *txn.Txn, span keys.Span) ([]kvpb.KeyValue, error) {
	return e.scanSpanFiltered(ctx, t, span, nil)
}

// scanSpanFiltered is scanSpan with an optional pushed-down row filter.
func (e *Executor) scanSpanFiltered(ctx context.Context, t *txn.Txn, span keys.Span, filter []byte) ([]kvpb.KeyValue, error) {
	var out []kvpb.KeyValue
	cur := span
	for {
		resp, err := t.Send(ctx, kvpb.Request{
			Method: kvpb.Scan, Key: cur.Key, EndKey: cur.EndKey, MaxKeys: scanPageSize,
			Filter: filter,
		})
		if err != nil {
			return nil, err
		}
		r := resp.Responses[0]
		out = append(out, r.Rows...)
		e.chargeUnmarshal(resp.ReadBytes())
		if r.ResumeSpan == nil {
			return out, nil
		}
		cur = *r.ResumeSpan
	}
}

// tableRow pairs a decoded row with its primary key.
type tableRow struct {
	pk  keys.Key
	row []Datum
}

// readTableRows returns the table's rows, using a primary-key point lookup
// or a secondary-index scan when the WHERE clause allows, and a full scan
// otherwise. The returned rows are not yet filtered by WHERE (the caller
// applies the filter; constrained plans just read less).
func (e *Executor) readTableRows(ctx context.Context, t *txn.Txn, desc *TableDescriptor, where Expr, args []Datum) ([]tableRow, error) {
	return e.readTableRowsAliased(ctx, t, desc, "", where, args)
}

// readTableRowsAliased is readTableRows with an alias accepted as a column
// qualifier (join inputs reference their tables by alias).
func (e *Executor) readTableRowsAliased(ctx context.Context, t *txn.Txn, desc *TableDescriptor, alias string, where Expr, args []Datum) ([]tableRow, error) {
	// Plan 1: full primary key equality -> point get.
	if pkVals, ok := extractPKConstraint(desc, alias, where, args); ok {
		key := primaryKeyFromValues(e.tenant, desc, pkVals)
		raw, found, err := t.Get(ctx, key)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, nil
		}
		row, err := decodeRowValue(raw)
		if err != nil {
			return nil, err
		}
		e.chargeRows(1)
		e.chargeUnmarshal(int64(len(raw)))
		return []tableRow{{pk: key, row: row}}, nil
	}
	// Plan 2: secondary index equality -> index scan + point lookups (the
	// "index join" plan shape of TPC-H Q9, §6.1.2).
	if idx, vals, ok := extractIndexConstraint(desc, alias, where, args); ok {
		prefix := indexPrefix(e.tenant, desc, idx, vals)
		entries, err := e.scanSpan(ctx, t, keys.Span{Key: prefix, EndKey: prefix.PrefixEnd()})
		if err != nil {
			return nil, err
		}
		var out []tableRow
		for _, entry := range entries {
			pkVals, err := decodeIndexKeyPK(e.tenant, desc, idx, entry.Key)
			if err != nil {
				return nil, err
			}
			key := primaryKeyFromValues(e.tenant, desc, pkVals)
			raw, found, err := t.Get(ctx, key)
			if err != nil {
				return nil, err
			}
			if !found {
				continue // index entry racing a delete
			}
			row, err := decodeRowValue(raw)
			if err != nil {
				return nil, err
			}
			out = append(out, tableRow{pk: key, row: row})
			e.chargeUnmarshal(int64(len(raw)))
		}
		e.chargeRows(len(out))
		return out, nil
	}
	// Plan 3: full table scan, with row-filter push-down when enabled.
	var filter []byte
	if e.cfg.FilterPushdown {
		filter = compilePushdownFilter(desc, where, args)
	}
	kvs, err := e.scanSpanFiltered(ctx, t, tableSpan(e.tenant, desc), filter)
	if err != nil {
		return nil, err
	}
	out := make([]tableRow, 0, len(kvs))
	for _, kv := range kvs {
		row, err := decodeRowValue(kv.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, tableRow{pk: kv.Key, row: row})
	}
	e.chargeRows(len(out))
	return out, nil
}

// extractPKConstraint finds constant equality constraints covering the whole
// primary key.
func extractPKConstraint(desc *TableDescriptor, alias string, where Expr, args []Datum) ([]Datum, bool) {
	if where == nil {
		return nil, false
	}
	eq := equalityConstraints(desc, alias, where, args)
	vals := make([]Datum, 0, len(desc.PrimaryKey))
	for _, pkIdx := range desc.PrimaryKey {
		d, ok := eq[pkIdx]
		if !ok {
			return nil, false
		}
		coerced, err := d.coerce(desc.Columns[pkIdx].Type)
		if err != nil {
			return nil, false
		}
		vals = append(vals, coerced)
	}
	return vals, true
}

// extractIndexConstraint finds an index whose leading column(s) are
// constrained by constant equality.
func extractIndexConstraint(desc *TableDescriptor, alias string, where Expr, args []Datum) (*IndexDescriptor, []Datum, bool) {
	if where == nil || len(desc.Indexes) == 0 {
		return nil, nil, false
	}
	eq := equalityConstraints(desc, alias, where, args)
	var best *IndexDescriptor
	var bestVals []Datum
	for i := range desc.Indexes {
		idx := &desc.Indexes[i]
		var vals []Datum
		for _, col := range idx.Columns {
			d, ok := eq[col]
			if !ok {
				break
			}
			coerced, err := d.coerce(desc.Columns[col].Type)
			if err != nil {
				break
			}
			vals = append(vals, coerced)
		}
		if len(vals) > len(bestVals) {
			best = idx
			bestVals = vals
		}
	}
	if best == nil || len(bestVals) == 0 {
		return nil, nil, false
	}
	return best, bestVals, true
}

// equalityConstraints maps column offsets to constant equality values found
// in the WHERE conjuncts.
func equalityConstraints(desc *TableDescriptor, alias string, where Expr, args []Datum) map[int]Datum {
	out := make(map[int]Datum)
	for _, c := range conjuncts(where) {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		tryBind := func(colSide, valSide Expr) {
			ref, ok := colSide.(*ColumnRef)
			if !ok {
				return
			}
			if ref.Table != "" && ref.Table != desc.Name && ref.Table != alias {
				return
			}
			i := desc.ColumnIndex(ref.Column)
			if i < 0 {
				return
			}
			if v, ok := constantValue(valSide, args); ok {
				out[i] = v
			}
		}
		tryBind(b.Left, b.Right)
		tryBind(b.Right, b.Left)
	}
	return out
}

// filterRows applies WHERE over rows with the given environment template.
func (e *Executor) filterRows(rows []tableRow, desc *TableDescriptor, alias string, where Expr, args []Datum) ([]tableRow, error) {
	if where == nil {
		return rows, nil
	}
	cols := make(map[string]int)
	bindColumns(desc, alias, 0, cols, map[string]bool{})
	out := rows[:0]
	for _, r := range rows {
		env := &evalEnv{cols: cols, row: r.row, args: args}
		v, err := evalExpr(env, where)
		if err != nil {
			return nil, err
		}
		if !v.Null && v.Kind == TypeBool && v.B {
			out = append(out, r)
		}
	}
	return out, nil
}

// insert writes rows, maintaining secondary indexes and rejecting duplicate
// primary keys.
func (e *Executor) insert(ctx context.Context, t *txn.Txn, s *Insert, args []Datum) (*Result, error) {
	desc, err := e.catalog.Lookup(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	colOrder := make([]int, 0, len(desc.Columns))
	if len(s.Columns) == 0 {
		for i := range desc.Columns {
			colOrder = append(colOrder, i)
		}
	} else {
		for _, name := range s.Columns {
			i := desc.ColumnIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("sql: column %q not in table %s", name, s.Table)
			}
			colOrder = append(colOrder, i)
		}
	}
	affected := 0
	for _, exprs := range s.Rows {
		if len(exprs) != len(colOrder) {
			return nil, fmt.Errorf("sql: INSERT has %d values for %d columns", len(exprs), len(colOrder))
		}
		row := make([]Datum, len(desc.Columns))
		for i := range row {
			row[i] = DNull
		}
		env := &evalEnv{args: args}
		for i, ex := range exprs {
			v, err := evalExpr(env, ex)
			if err != nil {
				return nil, err
			}
			coerced, err := v.coerce(desc.Columns[colOrder[i]].Type)
			if err != nil {
				return nil, err
			}
			row[colOrder[i]] = coerced
		}
		if err := e.writeRow(ctx, t, desc, row, true); err != nil {
			return nil, err
		}
		affected++
	}
	e.chargeRows(affected)
	return &Result{RowsAffected: affected}, nil
}

// writeRow persists a row and its index entries. checkDup rejects an
// existing primary key.
func (e *Executor) writeRow(ctx context.Context, t *txn.Txn, desc *TableDescriptor, row []Datum, checkDup bool) error {
	pk, err := primaryKey(e.tenant, desc, row)
	if err != nil {
		return err
	}
	if checkDup {
		if _, exists, err := t.Get(ctx, pk); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("sql: duplicate primary key in %s", desc.Name)
		}
	}
	if err := t.Put(ctx, pk, encodeRowValue(row)); err != nil {
		return err
	}
	for i := range desc.Indexes {
		ik, err := indexKey(e.tenant, desc, &desc.Indexes[i], row)
		if err != nil {
			return err
		}
		if err := t.Put(ctx, ik, []byte{}); err != nil {
			return err
		}
	}
	return nil
}

// deleteRow removes a row and its index entries.
func (e *Executor) deleteRow(ctx context.Context, t *txn.Txn, desc *TableDescriptor, r tableRow) error {
	if err := t.Delete(ctx, r.pk); err != nil {
		return err
	}
	for i := range desc.Indexes {
		ik, err := indexKey(e.tenant, desc, &desc.Indexes[i], r.row)
		if err != nil {
			return err
		}
		if err := t.Delete(ctx, ik); err != nil {
			return err
		}
	}
	return nil
}

func (e *Executor) update(ctx context.Context, t *txn.Txn, s *Update, args []Datum) (*Result, error) {
	desc, err := e.catalog.Lookup(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	rows, err := e.readTableRows(ctx, t, desc, s.Where, args)
	if err != nil {
		return nil, err
	}
	rows, err = e.filterRows(rows, desc, "", s.Where, args)
	if err != nil {
		return nil, err
	}
	cols := make(map[string]int)
	bindColumns(desc, "", 0, cols, map[string]bool{})
	affected := 0
	for _, r := range rows {
		newRow := append([]Datum(nil), r.row...)
		env := &evalEnv{cols: cols, row: r.row, args: args}
		pkChanged := false
		for _, set := range s.Set {
			i := desc.ColumnIndex(set.Column)
			if i < 0 {
				return nil, fmt.Errorf("sql: column %q not in table %s", set.Column, s.Table)
			}
			v, err := evalExpr(env, set.Expr)
			if err != nil {
				return nil, err
			}
			coerced, err := v.coerce(desc.Columns[i].Type)
			if err != nil {
				return nil, err
			}
			if desc.IsPrimaryKeyColumn(i) && !coerced.Equal(r.row[i]) {
				pkChanged = true
			}
			newRow[i] = coerced
		}
		if pkChanged {
			if err := e.deleteRow(ctx, t, desc, r); err != nil {
				return nil, err
			}
			if err := e.writeRow(ctx, t, desc, newRow, true); err != nil {
				return nil, err
			}
		} else {
			// Refresh index entries whose keys changed.
			for i := range desc.Indexes {
				oldKey, err := indexKey(e.tenant, desc, &desc.Indexes[i], r.row)
				if err != nil {
					return nil, err
				}
				newKey, err := indexKey(e.tenant, desc, &desc.Indexes[i], newRow)
				if err != nil {
					return nil, err
				}
				if !oldKey.Equal(newKey) {
					if err := t.Delete(ctx, oldKey); err != nil {
						return nil, err
					}
					if err := t.Put(ctx, newKey, []byte{}); err != nil {
						return nil, err
					}
				}
			}
			if err := t.Put(ctx, r.pk, encodeRowValue(newRow)); err != nil {
				return nil, err
			}
		}
		affected++
	}
	e.chargeRows(affected)
	return &Result{RowsAffected: affected}, nil
}

func (e *Executor) delete(ctx context.Context, t *txn.Txn, s *Delete, args []Datum) (*Result, error) {
	desc, err := e.catalog.Lookup(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	rows, err := e.readTableRows(ctx, t, desc, s.Where, args)
	if err != nil {
		return nil, err
	}
	rows, err = e.filterRows(rows, desc, "", s.Where, args)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := e.deleteRow(ctx, t, desc, r); err != nil {
			return nil, err
		}
	}
	e.chargeRows(len(rows))
	return &Result{RowsAffected: len(rows)}, nil
}

func (e *Executor) createIndex(ctx context.Context, s *CreateIndex) (*Result, error) {
	desc, err := e.catalog.Lookup(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	idx := IndexDescriptor{Name: s.Name}
	for _, col := range s.Columns {
		i := desc.ColumnIndex(col)
		if i < 0 {
			return nil, fmt.Errorf("sql: column %q not in table %s", col, s.Table)
		}
		idx.Columns = append(idx.Columns, i)
	}
	updated, err := e.catalog.CreateIndex(ctx, s.Table, idx)
	if err != nil {
		return nil, err
	}
	// Backfill existing rows.
	newIdx := &updated.Indexes[len(updated.Indexes)-1]
	err = e.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		kvs, err := e.scanSpan(ctx, t, tableSpan(e.tenant, updated))
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			row, err := decodeRowValue(kv.Value)
			if err != nil {
				return err
			}
			ik, err := indexKey(e.tenant, updated, newIdx, row)
			if err != nil {
				return err
			}
			if err := t.Put(ctx, ik, []byte{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Executor) dropTable(ctx context.Context, s *DropTable) (*Result, error) {
	desc, err := e.catalog.DropTable(ctx, s.Name)
	if err != nil {
		return nil, err
	}
	// Delete all table data (every index) in one ranged delete.
	prefix := keys.MakeTenantPrefix(e.tenant)
	prefix = keys.EncodeUint64(prefix, uint64(desc.ID))
	err = e.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		_, err := t.Send(ctx, kvpb.Request{
			Method: kvpb.DeleteRange, Key: prefix, EndKey: prefix.PrefixEnd(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// selectStmt plans and runs a SELECT.
func (e *Executor) selectStmt(ctx context.Context, t *txn.Txn, s *Select, args []Datum) (*Result, error) {
	desc, err := e.catalog.Lookup(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	cols := make(map[string]int)
	ambiguous := map[string]bool{}
	bindColumns(desc, s.TableAs, 0, cols, ambiguous)

	var rows [][]Datum
	var joinDesc *TableDescriptor
	if s.Join == nil {
		trs, err := e.readTableRows(ctx, t, desc, s.Where, args)
		if err != nil {
			return nil, err
		}
		trs, err = e.filterRows(trs, desc, s.TableAs, s.Where, args)
		if err != nil {
			return nil, err
		}
		for _, tr := range trs {
			rows = append(rows, tr.row)
		}
	} else {
		joinDesc, err = e.catalog.Lookup(ctx, s.Join.Table)
		if err != nil {
			return nil, err
		}
		bindColumns(joinDesc, s.Join.As, len(desc.Columns), cols, ambiguous)
		rows, err = e.joinRows(ctx, t, desc, joinDesc, s, args, cols)
		if err != nil {
			return nil, err
		}
		// Apply WHERE on joined rows.
		if s.Where != nil {
			filtered := rows[:0]
			for _, r := range rows {
				env := &evalEnv{cols: cols, row: r, args: args}
				v, err := evalExpr(env, s.Where)
				if err != nil {
					return nil, err
				}
				if !v.Null && v.Kind == TypeBool && v.B {
					filtered = append(filtered, r)
				}
			}
			rows = filtered
		}
	}

	// Aggregate or plain projection.
	hasAgg := len(s.GroupBy) > 0
	for _, se := range s.Exprs {
		if !se.Star && exprHasAggregate(se.Expr) {
			hasAgg = true
		}
	}
	var res *Result
	if hasAgg {
		res, err = e.aggregate(s, rows, cols, args)
		if err != nil {
			return nil, err
		}
		if len(s.OrderBy) > 0 {
			if err := orderAggResult(res, s); err != nil {
				return nil, err
			}
		}
	} else {
		if len(s.OrderBy) > 0 {
			if err := orderSourceRows(rows, s, cols, args); err != nil {
				return nil, err
			}
		}
		res, err = e.project(s, desc, joinDesc, rows, cols, args)
		if err != nil {
			return nil, err
		}
	}

	if s.Distinct {
		res.Rows = distinctRows(res.Rows)
	}
	if s.Limit >= 0 && int64(len(res.Rows)) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

// joinRows executes an inner join, preferring a hash join on an equality
// condition.
func (e *Executor) joinRows(ctx context.Context, t *txn.Txn, left, right *TableDescriptor, s *Select, args []Datum, cols map[string]int) ([][]Datum, error) {
	// Each input reads under the WHERE clause so per-table constraints
	// (e.g. an indexed equality on the fact table) constrain the plan —
	// the "index joins resulting in remote KV lookups" shape of Q9.
	// Constraints referencing the other table's columns simply don't bind.
	leftRows, err := e.readTableRowsAliased(ctx, t, left, s.TableAs, s.Where, args)
	if err != nil {
		return nil, err
	}
	rightRows, err := e.readTableRowsAliased(ctx, t, right, s.Join.As, s.Where, args)
	if err != nil {
		return nil, err
	}
	leftName, rightName := left.Name, right.Name
	if s.TableAs != "" {
		leftName = s.TableAs
	}
	if s.Join.As != "" {
		rightName = s.Join.As
	}

	// Try to extract a.col = b.col for a hash join.
	if lcol, rcol, ok := extractJoinEquality(s.Join.On, left, right, leftName, rightName); ok {
		ht := make(map[string][][]Datum, len(rightRows))
		for _, rr := range rightRows {
			k := rr.row[rcol].groupKey()
			ht[k] = append(ht[k], rr.row)
		}
		var out [][]Datum
		for _, lr := range leftRows {
			for _, rrow := range ht[lr.row[lcol].groupKey()] {
				combined := make([]Datum, 0, len(lr.row)+len(rrow))
				combined = append(combined, lr.row...)
				combined = append(combined, rrow...)
				out = append(out, combined)
			}
		}
		e.chargeRows(len(out))
		return out, nil
	}

	// Fallback: nested-loop join with the ON condition as a filter.
	var out [][]Datum
	for _, lr := range leftRows {
		for _, rr := range rightRows {
			combined := make([]Datum, 0, len(lr.row)+len(rr.row))
			combined = append(combined, lr.row...)
			combined = append(combined, rr.row...)
			env := &evalEnv{cols: cols, row: combined, args: args}
			v, err := evalExpr(env, s.Join.On)
			if err != nil {
				return nil, err
			}
			if !v.Null && v.Kind == TypeBool && v.B {
				out = append(out, combined)
			}
		}
	}
	e.chargeRows(len(out))
	return out, nil
}

// extractJoinEquality recognizes ON conditions of the form l.col = r.col.
func extractJoinEquality(on Expr, left, right *TableDescriptor, leftName, rightName string) (lcol, rcol int, ok bool) {
	b, isBin := on.(*BinaryExpr)
	if !isBin || b.Op != "=" {
		return 0, 0, false
	}
	lref, lok := b.Left.(*ColumnRef)
	rref, rok := b.Right.(*ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	resolve := func(ref *ColumnRef) (table int, col int, ok bool) {
		if ref.Table == leftName || ref.Table == left.Name {
			if i := left.ColumnIndex(ref.Column); i >= 0 {
				return 0, i, true
			}
		}
		if ref.Table == rightName || ref.Table == right.Name {
			if i := right.ColumnIndex(ref.Column); i >= 0 {
				return 1, i, true
			}
		}
		if ref.Table == "" {
			if i := left.ColumnIndex(ref.Column); i >= 0 {
				return 0, i, true
			}
			if i := right.ColumnIndex(ref.Column); i >= 0 {
				return 1, i, true
			}
		}
		return 0, 0, false
	}
	lt, lc, lok2 := resolve(lref)
	rt, rc, rok2 := resolve(rref)
	if !lok2 || !rok2 || lt == rt {
		return 0, 0, false
	}
	if lt == 0 {
		return lc, rc, true
	}
	return rc, lc, true
}

// project evaluates plain (non-aggregate) select expressions.
func (e *Executor) project(s *Select, desc, joinDesc *TableDescriptor, rows [][]Datum, cols map[string]int, args []Datum) (*Result, error) {
	res := &Result{}
	// Column headers.
	for _, se := range s.Exprs {
		switch {
		case se.Star:
			for _, c := range desc.Columns {
				res.Columns = append(res.Columns, c.Name)
			}
			if joinDesc != nil {
				for _, c := range joinDesc.Columns {
					res.Columns = append(res.Columns, c.Name)
				}
			}
		case se.As != "":
			res.Columns = append(res.Columns, se.As)
		default:
			res.Columns = append(res.Columns, exprName(se.Expr))
		}
	}
	for _, row := range rows {
		var out []Datum
		env := &evalEnv{cols: cols, row: row, args: args}
		for _, se := range s.Exprs {
			if se.Star {
				out = append(out, row...)
				continue
			}
			v, err := evalExpr(env, se.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func exprName(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Column
		}
		return x.Column
	case *FuncExpr:
		return strings.ToLower(x.Name)
	default:
		return "column"
	}
}

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn    string
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   Datum
	max   Datum
	seen  bool
}

func (a *aggState) update(d Datum) {
	if d.Null {
		return
	}
	a.count++
	if d.isNumeric() {
		if d.Kind == TypeInt {
			a.sumI += d.I
		} else {
			a.isInt = false
		}
		a.sum += d.asFloat()
	}
	if !a.seen || d.Compare(a.min) < 0 {
		a.min = d
	}
	if !a.seen || d.Compare(a.max) > 0 {
		a.max = d
	}
	a.seen = true
}

func (a *aggState) result() Datum {
	switch a.fn {
	case "COUNT":
		return DInt(a.count)
	case "SUM":
		if !a.seen {
			return DNull
		}
		if a.isInt {
			return DInt(a.sumI)
		}
		return DFloat(a.sum)
	case "AVG":
		if a.count == 0 {
			return DNull
		}
		return DFloat(a.sum / float64(a.count))
	case "MIN":
		if !a.seen {
			return DNull
		}
		return a.min
	case "MAX":
		if !a.seen {
			return DNull
		}
		return a.max
	default:
		return DNull
	}
}

// aggregate evaluates GROUP BY and aggregate functions.
func (e *Executor) aggregate(s *Select, rows [][]Datum, cols map[string]int, args []Datum) (*Result, error) {
	type group struct {
		key      []Datum // GROUP BY values
		firstRow []Datum
		aggs     []*aggState
	}
	// One aggState slot per select expression (nil for non-aggregates).
	mkAggs := func() ([]*aggState, error) {
		out := make([]*aggState, len(s.Exprs))
		for i, se := range s.Exprs {
			if se.Star {
				return nil, fmt.Errorf("sql: * not allowed with aggregates")
			}
			if fe, ok := se.Expr.(*FuncExpr); ok {
				out[i] = &aggState{fn: fe.Name, isInt: true}
			}
		}
		return out, nil
	}

	groups := make(map[string]*group)
	var order []string
	for _, row := range rows {
		env := &evalEnv{cols: cols, row: row, args: args}
		var keyParts []string
		var keyVals []Datum
		for _, ge := range s.GroupBy {
			v, err := evalExpr(env, ge)
			if err != nil {
				return nil, err
			}
			keyParts = append(keyParts, v.groupKey())
			keyVals = append(keyVals, v)
		}
		k := strings.Join(keyParts, "|")
		g, ok := groups[k]
		if !ok {
			aggs, err := mkAggs()
			if err != nil {
				return nil, err
			}
			g = &group{key: keyVals, firstRow: row, aggs: aggs}
			groups[k] = g
			order = append(order, k)
		}
		for i, se := range s.Exprs {
			if g.aggs[i] == nil {
				continue
			}
			fe := se.Expr.(*FuncExpr)
			if fe.Star {
				g.aggs[i].count++
				g.aggs[i].seen = true
				continue
			}
			v, err := evalExpr(env, fe.Arg)
			if err != nil {
				return nil, err
			}
			g.aggs[i].update(v)
			e.chargeAgg(1)
		}
	}
	// No GROUP BY over zero rows still yields one (empty-aggregate) row.
	if len(s.GroupBy) == 0 && len(order) == 0 {
		aggs, err := mkAggs()
		if err != nil {
			return nil, err
		}
		groups[""] = &group{aggs: aggs}
		order = append(order, "")
	}

	res := &Result{}
	for _, se := range s.Exprs {
		if se.As != "" {
			res.Columns = append(res.Columns, se.As)
		} else {
			res.Columns = append(res.Columns, exprName(se.Expr))
		}
	}
	for _, k := range order {
		g := groups[k]
		var out []Datum
		for i, se := range s.Exprs {
			if g.aggs[i] != nil {
				out = append(out, g.aggs[i].result())
				continue
			}
			// Non-aggregate expression: evaluate on the group's first row.
			row := g.firstRow
			if row == nil {
				out = append(out, DNull)
				continue
			}
			env := &evalEnv{cols: cols, row: row, args: args}
			v, err := evalExpr(env, se.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// orderSourceRows sorts the pre-projection rows of a non-aggregate query.
// ORDER BY terms may reference any source column, a select alias, or an
// arbitrary expression over source columns.
func orderSourceRows(rows [][]Datum, s *Select, cols map[string]int, args []Datum) error {
	// Aliases resolve to their select expressions.
	aliases := make(map[string]Expr)
	for _, se := range s.Exprs {
		if se.As != "" && !se.Star {
			aliases[se.As] = se.Expr
		}
	}
	resolve := func(oc OrderClause) Expr {
		if ref, ok := oc.Expr.(*ColumnRef); ok && ref.Table == "" {
			if ex, ok := aliases[ref.Column]; ok {
				if _, isCol := cols[ref.Column]; !isCol {
					return ex
				}
			}
		}
		return oc.Expr
	}
	keys := make([][]Datum, len(rows))
	for i, row := range rows {
		env := &evalEnv{cols: cols, row: row, args: args}
		for _, oc := range s.OrderBy {
			v, err := evalExpr(env, resolve(oc))
			if err != nil {
				return err
			}
			keys[i] = append(keys[i], v)
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, oc := range s.OrderBy {
			cmp := keys[idx[a]][k].Compare(keys[idx[b]][k])
			if cmp == 0 {
				continue
			}
			if oc.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	sorted := make([][]Datum, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
	return nil
}

// orderAggResult sorts aggregate output rows; ORDER BY terms must name an
// output column or alias of the aggregation.
func orderAggResult(res *Result, s *Select) error {
	resCols := make(map[string]int)
	for i, name := range res.Columns {
		resCols[name] = i
	}
	keyIdx := make([]int, len(s.OrderBy))
	for k, oc := range s.OrderBy {
		ref, ok := oc.Expr.(*ColumnRef)
		if !ok || ref.Table != "" {
			return fmt.Errorf("sql: ORDER BY %s must reference an output column of the aggregation", exprName(oc.Expr))
		}
		j, ok := resCols[ref.Column]
		if !ok {
			return fmt.Errorf("sql: ORDER BY column %q is not in the aggregation output", ref.Column)
		}
		keyIdx[k] = j
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for k, oc := range s.OrderBy {
			cmp := res.Rows[a][keyIdx[k]].Compare(res.Rows[b][keyIdx[k]])
			if cmp == 0 {
				continue
			}
			if oc.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return nil
}

func distinctRows(rows [][]Datum) [][]Datum {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		var parts []string
		for _, d := range r {
			parts = append(parts, d.groupKey())
		}
		k := strings.Join(parts, "|")
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
