package wire

import (
	"math"
	"testing"

	"crdbserverless/internal/codec"
	"crdbserverless/internal/codec/codectest"
	"crdbserverless/internal/sql"
)

// fuzzMessage fuzzes Decode for one message type M. Payloads arrive from
// clients, so every type gets its own target.
func fuzzMessage[M any, PM interface {
	*M
	Message
}](f *testing.F, hostile [][]byte, seeds ...M) {
	decode := func(b []byte) (*M, error) {
		m := new(M)
		return m, Decode(b, PM(m))
	}
	encode := func(m *M) []byte { return PM(m).appendTo(codec.AppendVersion(nil)) }
	ptrs := make([]*M, len(seeds))
	for i := range seeds {
		ptrs[i] = &seeds[i]
	}
	codectest.Fuzz(f, decode, encode, hostile, ptrs...)
}

func FuzzStartup(f *testing.F) {
	fuzzMessage(f, [][]byte{codectest.WithCount()},
		Startup{},
		Startup{Params: map[string]string{"tenant": "acme"}},
		Startup{Params: map[string]string{"tenant": "acme", "user": "app", "password": "pw", "database": "defaultdb"}},
	)
}

func FuzzAuth(f *testing.F) {
	fuzzMessage(f, [][]byte{codectest.WithCount(0)},
		Auth{OK: true},
		Auth{Msg: "invalid credentials"},
	)
}

func FuzzQuery(f *testing.F) {
	fuzzMessage(f, [][]byte{codectest.WithCount(), codectest.WithCount(0)},
		Query{SQL: "SELECT 1"},
		Query{SQL: "SELECT 1", Args: []sql.Datum{sql.DInt(42), sql.DString("x")}},
		Query{SQL: "UPDATE kv SET v = $2 WHERE k = $1", Args: []sql.Datum{sql.DNull, sql.DFloat(-2.5), sql.DBool(true)},
			TraceID: math.MaxUint64, SpanID: 7},
	)
}

func FuzzResult(f *testing.F) {
	fuzzMessage(f, [][]byte{codectest.WithCount(), codectest.WithCount(0), codectest.WithCount(0, 1)},
		Result{},
		Result{RowsAffected: 1},
		Result{Columns: []string{"k", "v"}, Rows: [][]sql.Datum{
			{sql.DInt(1), sql.DString("one")},
			{sql.DInt(2), sql.DNull},
		}},
		Result{Err: "sql: table \"t\" does not exist"},
	)
}

func FuzzSerialize(f *testing.F) {
	fuzzMessage(f, nil, Serialize{})
}

func FuzzSerialized(f *testing.F) {
	ser := (&sql.SerializedSession{User: "app", Settings: map[string]string{"app": "x"}, RevivalToken: "tok"}).Encode()
	fuzzMessage(f, [][]byte{codectest.WithCount(), codectest.WithCount(0)},
		Serialized{Data: ser},
		Serialized{Err: "sql: session has an open transaction; not idle"},
	)
}

func FuzzRestore(f *testing.F) {
	ser := (&sql.SerializedSession{User: "app", RevivalToken: "tok"}).Encode()
	fuzzMessage(f, [][]byte{codectest.WithCount()}, Restore{Data: ser}, Restore{})
}

func FuzzTerminate(f *testing.F) {
	fuzzMessage(f, nil, Terminate{})
}
