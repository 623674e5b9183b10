package sql

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"crdbserverless/internal/codec"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/region"
	"crdbserverless/internal/txn"
)

// Reserved table IDs within each tenant's keyspace.
const (
	// DescriptorTableID holds the catalog itself: system.descriptor. It is
	// configured with GLOBAL locality so SQL nodes in any region can read
	// schemas with consistent local reads at startup (§3.2.5).
	DescriptorTableID keys.TableID = 1
	// SQLInstancesTableID holds system.sql_instances, the registry of live
	// SQL nodes used for DistSQL routing. REGIONAL BY ROW locality keeps a
	// starting node's registration write local (§3.2.5).
	SQLInstancesTableID keys.TableID = 2
	// firstUserTableID is where user table IDs begin.
	firstUserTableID keys.TableID = 100
)

// IndexDescriptor describes a secondary index.
type IndexDescriptor struct {
	ID      keys.IndexID
	Name    string
	Columns []int // offsets into the table's Columns
}

// TableDescriptor is the schema of one table, stored in system.descriptor.
type TableDescriptor struct {
	ID         keys.TableID
	Name       string
	Columns    []ColumnDef
	PrimaryKey []int // offsets into Columns
	Indexes    []IndexDescriptor
	// Locality and HomeRegion configure multi-region behavior (§3.2.5).
	Locality   region.Locality
	HomeRegion region.Region
}

// ColumnIndex returns the offset of the named column, or -1.
func (d *TableDescriptor) ColumnIndex(name string) int {
	for i, c := range d.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// IsPrimaryKeyColumn reports whether column offset i is part of the PK.
func (d *TableDescriptor) IsPrimaryKeyColumn(i int) bool {
	for _, pk := range d.PrimaryKey {
		if pk == i {
			return true
		}
	}
	return false
}

func encodeDescriptor(d *TableDescriptor) []byte {
	b := codec.AppendVersion(nil)
	b = codec.AppendUvarint(b, uint64(d.ID))
	b = codec.AppendString(b, d.Name)
	b = codec.AppendUvarint(b, uint64(len(d.Columns)))
	for _, c := range d.Columns {
		b = codec.AppendVarint(codec.AppendString(b, c.Name), int64(c.Type))
	}
	b = codec.AppendInts(b, d.PrimaryKey)
	b = codec.AppendUvarint(b, uint64(len(d.Indexes)))
	for _, idx := range d.Indexes {
		b = codec.AppendUvarint(b, uint64(idx.ID))
		b = codec.AppendString(b, idx.Name)
		b = codec.AppendInts(b, idx.Columns)
	}
	b = codec.AppendVarint(b, int64(d.Locality))
	return codec.AppendString(b, string(d.HomeRegion))
}

func decodeDescriptor(b []byte) (*TableDescriptor, error) {
	r := codec.NewReader(b)
	d := &TableDescriptor{ID: keys.TableID(r.Uint32()), Name: r.String()}
	// A column is at least two bytes: name length and type.
	if n := r.Count(2); n > 0 {
		d.Columns = make([]ColumnDef, n)
		for i := range d.Columns {
			d.Columns[i] = ColumnDef{Name: r.String(), Type: ColumnType(r.Int())}
		}
	}
	d.PrimaryKey = r.Ints()
	// An index is at least three bytes: ID, name length, column count.
	if n := r.Count(3); n > 0 {
		d.Indexes = make([]IndexDescriptor, n)
		for i := range d.Indexes {
			d.Indexes[i] = IndexDescriptor{ID: keys.IndexID(r.Uint32()), Name: r.String(), Columns: r.Ints()}
		}
	}
	d.Locality = region.Locality(r.Int())
	d.HomeRegion = region.Region(r.String())
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("sql: decoding descriptor: %w", err)
	}
	return d, nil
}

// descriptorKey returns the system.descriptor row key for a table name.
func descriptorKey(tenant keys.TenantID, name string) keys.Key {
	k := keys.MakeTableIndexPrefix(tenant, DescriptorTableID, keys.PrimaryIndexID)
	return keys.EncodeString(k, name)
}

// nextIDKey holds the tenant's table-ID allocation counter.
func nextIDKey(tenant keys.TenantID) keys.Key {
	k := keys.MakeTableIndexPrefix(tenant, DescriptorTableID, keys.IndexID(2))
	return keys.EncodeString(k, "next_table_id")
}

// Catalog reads and writes a tenant's schema. A Catalog caches descriptors;
// DDL through the same Catalog invalidates the cache (cross-node schema
// leasing is out of scope — CRDB's lease protocol fills that role).
type Catalog struct {
	tenant keys.TenantID
	coord  *txn.Coordinator

	mu    sync.Mutex
	cache map[string]*TableDescriptor
}

// NewCatalog returns a catalog for the tenant backed by the coordinator.
func NewCatalog(coord *txn.Coordinator, tenant keys.TenantID) *Catalog {
	return &Catalog{tenant: tenant, coord: coord, cache: make(map[string]*TableDescriptor)}
}

// CreateTable allocates an ID and persists a descriptor for the statement.
func (c *Catalog) CreateTable(ctx context.Context, stmt *CreateTable) (*TableDescriptor, error) {
	desc := &TableDescriptor{Name: stmt.Name, Columns: stmt.Columns}
	seen := map[string]bool{}
	for _, col := range stmt.Columns {
		if seen[col.Name] {
			return nil, fmt.Errorf("sql: duplicate column %q", col.Name)
		}
		seen[col.Name] = true
	}
	for _, pk := range stmt.PrimaryKey {
		i := desc.ColumnIndex(pk)
		if i < 0 {
			return nil, fmt.Errorf("sql: primary key column %q not found", pk)
		}
		desc.PrimaryKey = append(desc.PrimaryKey, i)
	}
	err := c.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		// Name must be free.
		if _, ok, err := t.Get(ctx, descriptorKey(c.tenant, stmt.Name)); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("sql: table %q already exists", stmt.Name)
		}
		// Allocate the ID.
		id, err := c.allocateTableID(ctx, t)
		if err != nil {
			return err
		}
		desc.ID = id
		return c.writeDescriptor(ctx, t, desc)
	})
	if err != nil {
		return nil, err
	}
	c.noteDescriptor(desc)
	return desc, nil
}

func (c *Catalog) allocateTableID(ctx context.Context, t *txn.Txn) (keys.TableID, error) {
	key := nextIDKey(c.tenant)
	raw, ok, err := t.Get(ctx, key)
	if err != nil {
		return 0, err
	}
	next := uint64(firstUserTableID)
	if ok {
		_, v, err := keys.DecodeUint64(keys.Key(raw))
		if err != nil {
			return 0, err
		}
		next = v
	}
	if err := t.Put(ctx, key, keys.EncodeUint64(nil, next+1)); err != nil {
		return 0, err
	}
	return keys.TableID(next), nil
}

func (c *Catalog) writeDescriptor(ctx context.Context, t *txn.Txn, desc *TableDescriptor) error {
	return t.Put(ctx, descriptorKey(c.tenant, desc.Name), encodeDescriptor(desc))
}

// CreateIndex adds a secondary index descriptor. Backfilling existing rows
// is the executor's job (see Executor.createIndex).
func (c *Catalog) CreateIndex(ctx context.Context, table string, idx IndexDescriptor) (*TableDescriptor, error) {
	var updated *TableDescriptor
	err := c.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		desc, err := c.readDescriptor(ctx, t, table)
		if err != nil {
			return err
		}
		for _, existing := range desc.Indexes {
			if existing.Name == idx.Name {
				return fmt.Errorf("sql: index %q already exists", idx.Name)
			}
		}
		// Index IDs: primary is 1; secondaries start at 2.
		idx.ID = keys.IndexID(2 + len(desc.Indexes))
		desc.Indexes = append(desc.Indexes, idx)
		updated = desc
		return c.writeDescriptor(ctx, t, desc)
	})
	if err != nil {
		return nil, err
	}
	c.noteDescriptor(updated)
	return updated, nil
}

// DropTable removes the descriptor. Row data is deleted by the executor.
func (c *Catalog) DropTable(ctx context.Context, name string) (*TableDescriptor, error) {
	var dropped *TableDescriptor
	err := c.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		desc, err := c.readDescriptor(ctx, t, name)
		if err != nil {
			return err
		}
		dropped = desc
		return t.Delete(ctx, descriptorKey(c.tenant, name))
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	delete(c.cache, name)
	c.mu.Unlock()
	return dropped, nil
}

// Lookup returns the descriptor for a table, from cache or storage.
func (c *Catalog) Lookup(ctx context.Context, name string) (*TableDescriptor, error) {
	c.mu.Lock()
	if d, ok := c.cache[name]; ok {
		c.mu.Unlock()
		return d, nil
	}
	c.mu.Unlock()
	var desc *TableDescriptor
	err := c.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		d, err := c.readDescriptor(ctx, t, name)
		if err != nil {
			return err
		}
		desc = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.noteDescriptor(desc)
	return desc, nil
}

func (c *Catalog) readDescriptor(ctx context.Context, t *txn.Txn, name string) (*TableDescriptor, error) {
	raw, ok, err := t.Get(ctx, descriptorKey(c.tenant, name))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("sql: table %q does not exist", name)
	}
	return decodeDescriptor(raw)
}

// List returns the names of the tenant's tables, sorted.
func (c *Catalog) List(ctx context.Context) ([]string, error) {
	prefix := keys.MakeTableIndexPrefix(c.tenant, DescriptorTableID, keys.PrimaryIndexID)
	span := keys.Span{Key: prefix, EndKey: prefix.PrefixEnd()}
	var names []string
	err := c.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		names = names[:0]
		rows, err := t.Scan(ctx, span, 0)
		if err != nil {
			return err
		}
		for _, kv := range rows {
			d, err := decodeDescriptor(kv.Value)
			if err != nil {
				return err
			}
			names = append(names, d.Name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Invalidate clears the descriptor cache (tests and DDL coordination).
func (c *Catalog) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache = make(map[string]*TableDescriptor)
}

func (c *Catalog) noteDescriptor(d *TableDescriptor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache[d.Name] = d
}

// Tenant returns the catalog's tenant.
func (c *Catalog) Tenant() keys.TenantID { return c.tenant }
