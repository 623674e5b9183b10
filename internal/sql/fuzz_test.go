package sql

import (
	"math"
	"testing"

	"crdbserverless/internal/codec/codectest"
	"crdbserverless/internal/region"
)

func FuzzRowValue(f *testing.F) {
	codectest.Fuzz(f, decodeRowValue, encodeRowValue,
		[][]byte{codectest.WithCount(), codectest.WithCount(1, datumS)},
		[]Datum{DInt(1), DString("one")},
		[]Datum{DInt(-42), DFloat(math.Copysign(0, -1)), DBool(true), DNull},
		[]Datum{DFloat(math.Inf(1)), DString(""), DBool(false), {Null: true, Kind: TypeString}},
	)
}

func FuzzDescriptor(f *testing.F) {
	codectest.Fuzz(f, decodeDescriptor, encodeDescriptor,
		[][]byte{codectest.WithCount(100), codectest.WithCount(100, 1, 't'), codectest.WithCount(100, 1, 't', 0)},
		&TableDescriptor{
			Name:    "t",
			Columns: []ColumnDef{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeString}},
		},
		&TableDescriptor{
			ID:         firstUserTableID + 7,
			Name:       "orders",
			Columns:    []ColumnDef{{Name: "id", Type: TypeInt}, {Name: "region", Type: TypeString}, {Name: "total", Type: TypeFloat}, {Name: "paid", Type: TypeBool}},
			PrimaryKey: []int{1, 0},
			Indexes:    []IndexDescriptor{{ID: 2, Name: "orders_total", Columns: []int{2}}},
			Locality:   region.LocalityRegionalByRow,
			HomeRegion: "us-east1",
		},
	)
}

func FuzzSerializedSession(f *testing.F) {
	codectest.Fuzz(f, DecodeSerializedSession, (*SerializedSession).Encode,
		[][]byte{codectest.WithCount(), codectest.WithCount(0), codectest.WithCount(0, 0)},
		&SerializedSession{User: "app", RevivalToken: MakeRevivalToken([]byte("secret"), "app")},
		&SerializedSession{
			User:         "app",
			Settings:     map[string]string{"app": "x", "application_name": "migrated"},
			Prepared:     map[string]string{"get": "SELECT v FROM kv WHERE k = $1"},
			RevivalToken: "tok",
		},
	)
}
