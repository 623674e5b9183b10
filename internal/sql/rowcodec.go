package sql

import (
	"fmt"
	"math"

	"crdbserverless/internal/codec"
	"crdbserverless/internal/keys"
)

// Row layout in the KV keyspace (§3.1: "SQL schema metadata and individual
// table accesses are translated by the SQL layer into basic KV operations"):
//
//	primary:   /Tenant/<t>/Table/<id>/Index/1/<pk datums>      -> row value
//	secondary: /Tenant/<t>/Table/<id>/Index/<n>/<idx datums><pk datums> -> empty
//
// A row value is the codec version byte followed by AppendDatums of every
// column, in column order.

// primaryKey builds a row's primary index key.
func primaryKey(tenant keys.TenantID, desc *TableDescriptor, row []Datum) (keys.Key, error) {
	k := keys.MakeTableIndexPrefix(tenant, desc.ID, keys.PrimaryIndexID)
	for _, pkIdx := range desc.PrimaryKey {
		if pkIdx >= len(row) {
			return nil, fmt.Errorf("sql: row too short for primary key of %s", desc.Name)
		}
		if row[pkIdx].Null {
			return nil, fmt.Errorf("sql: NULL in primary key of %s", desc.Name)
		}
		k = encodeDatumKey(k, row[pkIdx])
	}
	return k, nil
}

// primaryKeyFromValues builds a primary key from just the PK datums (for
// point lookups planned from WHERE clauses).
func primaryKeyFromValues(tenant keys.TenantID, desc *TableDescriptor, pkVals []Datum) keys.Key {
	k := keys.MakeTableIndexPrefix(tenant, desc.ID, keys.PrimaryIndexID)
	for _, d := range pkVals {
		k = encodeDatumKey(k, d)
	}
	return k
}

// tableSpan covers the table's primary index.
func tableSpan(tenant keys.TenantID, desc *TableDescriptor) keys.Span {
	return keys.MakeTableIndexSpan(tenant, desc.ID, keys.PrimaryIndexID)
}

// encodeRowValue serializes the full datum row as the primary index value.
func encodeRowValue(row []Datum) []byte {
	return AppendDatums(codec.AppendVersion(make([]byte, 0, 1+8*len(row))), row)
}

// decodeRowValue deserializes a primary index value.
func decodeRowValue(b []byte) ([]Datum, error) {
	r := codec.NewReader(b)
	row := ReadDatums(&r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("sql: decoding row: %w", err)
	}
	return row, nil
}

// A datum encodes as one flag byte naming its non-zero fields, followed by
// those fields in declaration order. Zero fields cost nothing, and every
// Datum value round-trips exactly.
const (
	datumNull = 1 << iota
	datumKind
	datumI
	datumF
	datumS
	datumB
	datumAllFlags = 1<<iota - 1
)

// AppendDatums appends a count-prefixed datum list in the codec layout (no
// version byte: the enclosing value carries it).
func AppendDatums(b []byte, ds []Datum) []byte {
	b = codec.AppendUvarint(b, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		var flags byte
		if d.Null {
			flags |= datumNull
		}
		if d.Kind != 0 {
			flags |= datumKind
		}
		if d.I != 0 {
			flags |= datumI
		}
		if math.Float64bits(d.F) != 0 {
			flags |= datumF
		}
		if d.S != "" {
			flags |= datumS
		}
		if d.B {
			flags |= datumB
		}
		b = append(b, flags)
		if flags&datumKind != 0 {
			b = codec.AppendVarint(b, int64(d.Kind))
		}
		if flags&datumI != 0 {
			b = codec.AppendVarint(b, d.I)
		}
		if flags&datumF != 0 {
			b = codec.AppendFloat64(b, d.F)
		}
		if flags&datumS != 0 {
			b = codec.AppendString(b, d.S)
		}
	}
	return b
}

// ReadDatums reads a list written by AppendDatums; an empty list reads as
// nil. A field flagged present must be non-zero, so the encoding is
// canonical.
func ReadDatums(r *codec.Reader) []Datum {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ds := make([]Datum, n)
	for i := range ds {
		d := &ds[i]
		flags := r.Byte()
		if flags&^datumAllFlags != 0 {
			r.Failf("datum flags %#x", flags)
			return nil
		}
		d.Null = flags&datumNull != 0
		d.B = flags&datumB != 0
		if flags&datumKind != 0 {
			d.Kind = ColumnType(r.Int())
		}
		if flags&datumI != 0 {
			d.I = r.Varint()
		}
		if flags&datumF != 0 {
			d.F = r.Float64()
		}
		if flags&datumS != 0 {
			d.S = r.String()
		}
		if flags&datumKind != 0 && d.Kind == 0 || flags&datumI != 0 && d.I == 0 ||
			flags&datumF != 0 && math.Float64bits(d.F) == 0 || flags&datumS != 0 && d.S == "" {
			r.Failf("datum field flagged present but zero")
		}
		if r.Err() != nil {
			return nil
		}
	}
	return ds
}

// indexKey builds a secondary index entry key for a row.
func indexKey(tenant keys.TenantID, desc *TableDescriptor, idx *IndexDescriptor, row []Datum) (keys.Key, error) {
	k := keys.MakeTableIndexPrefix(tenant, desc.ID, idx.ID)
	for _, col := range idx.Columns {
		if col >= len(row) {
			return nil, fmt.Errorf("sql: row too short for index %s", idx.Name)
		}
		k = encodeDatumKey(k, row[col])
	}
	// Append the primary key to make the entry unique and to let index
	// scans recover the row.
	for _, pkIdx := range desc.PrimaryKey {
		k = encodeDatumKey(k, row[pkIdx])
	}
	return k, nil
}

// indexPrefix builds the scan prefix for an index constrained to the given
// leading datum values (may be fewer than the indexed columns).
func indexPrefix(tenant keys.TenantID, desc *TableDescriptor, idx *IndexDescriptor, vals []Datum) keys.Key {
	k := keys.MakeTableIndexPrefix(tenant, desc.ID, idx.ID)
	for _, d := range vals {
		k = encodeDatumKey(k, d)
	}
	return k
}

// decodeIndexKeyPK extracts the primary key datums from a secondary index
// entry key.
func decodeIndexKeyPK(tenant keys.TenantID, desc *TableDescriptor, idx *IndexDescriptor, key keys.Key) ([]Datum, error) {
	prefix := keys.MakeTableIndexPrefix(tenant, desc.ID, idx.ID)
	if len(key) < len(prefix) || !key[:len(prefix)].Equal(prefix) {
		return nil, fmt.Errorf("sql: key not in index %s", idx.Name)
	}
	rest := key[len(prefix):]
	// Skip the indexed datums.
	var err error
	for range idx.Columns {
		rest, _, err = decodeDatumKey(rest)
		if err != nil {
			return nil, err
		}
	}
	// Decode the primary key datums.
	pk := make([]Datum, 0, len(desc.PrimaryKey))
	for range desc.PrimaryKey {
		var d Datum
		rest, d, err = decodeDatumKey(rest)
		if err != nil {
			return nil, err
		}
		pk = append(pk, d)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sql: trailing bytes in index key")
	}
	return pk, nil
}
