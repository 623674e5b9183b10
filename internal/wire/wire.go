// Package wire implements the client/server protocol spoken between SQL
// clients, the routing proxy, and SQL nodes. It is a compact analogue of the
// PostgreSQL wire protocol (§4.2.2): a startup message carries routing
// parameters (tenant, user, password) so the proxy can identify the tenant
// before any query flows, and dedicated control messages support the session
// serialization handshake used by connection migration (§4.2.4).
//
// Framing: 1 type byte, 4-byte big-endian payload length, then the payload:
// the message's fields in the internal/codec layout, led by its version byte.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"crdbserverless/internal/codec"
	"crdbserverless/internal/sql"
)

// Message type bytes.
const (
	// MsgStartup opens a connection: params include tenant, user, password.
	MsgStartup = byte('S')
	// MsgAuth answers a startup or restore attempt.
	MsgAuth = byte('R')
	// MsgQuery carries one SQL statement with arguments.
	MsgQuery = byte('Q')
	// MsgResult carries a statement's result (or error).
	MsgResult = byte('D')
	// MsgTerminate closes the connection gracefully.
	MsgTerminate = byte('X')
	// MsgSerialize asks a SQL node to serialize an idle session (proxy to
	// node, during migration).
	MsgSerialize = byte('M')
	// MsgSerialized returns the serialized session blob.
	MsgSerialized = byte('m')
	// MsgRestore opens a connection resuming a serialized session.
	MsgRestore = byte('r')
)

// maxFrame bounds a frame payload (16 MiB).
const maxFrame = 16 << 20

// Startup is the first message on a client connection.
type Startup struct {
	// Params carries routing and authentication data. Recognized keys:
	// "tenant" (cluster name), "user", "password", "database".
	Params map[string]string
}

// Auth is the server's response to Startup or Restore.
type Auth struct {
	OK  bool
	Msg string
}

// Query is one SQL statement with bound arguments.
type Query struct {
	SQL  string
	Args []sql.Datum
	// TraceID/SpanID propagate the request trace across the hop from the
	// proxy to the SQL node: the proxy stamps its exchange span here and
	// the node continues the trace under it. Zero means untraced.
	TraceID uint64
	SpanID  uint64
}

// Result is a statement outcome.
type Result struct {
	Columns      []string
	Rows         [][]sql.Datum
	RowsAffected int
	Err          string
}

// Serialize asks the node to capture the connection's session.
type Serialize struct{}

// Serialized carries the captured session.
type Serialized struct {
	Data []byte
	Err  string
}

// Restore resumes a migrated session on a new node.
type Restore struct {
	Data []byte
}

// Terminate closes the connection.
type Terminate struct{}

// Message is the body of one wire frame. Every message type in this package
// implements it; each encodes its own fields in declaration order.
type Message interface {
	appendTo(b []byte) []byte
	readFrom(r *codec.Reader)
}

func (m *Startup) appendTo(b []byte) []byte { return codec.AppendStringMap(b, m.Params) }
func (m *Startup) readFrom(r *codec.Reader) { m.Params = r.StringMap() }

func (m *Auth) appendTo(b []byte) []byte {
	return codec.AppendString(codec.AppendBool(b, m.OK), m.Msg)
}

func (m *Auth) readFrom(r *codec.Reader) {
	m.OK = r.Bool()
	m.Msg = r.String()
}

func (m *Query) appendTo(b []byte) []byte {
	b = codec.AppendString(b, m.SQL)
	b = sql.AppendDatums(b, m.Args)
	b = codec.AppendUvarint(b, m.TraceID)
	return codec.AppendUvarint(b, m.SpanID)
}

func (m *Query) readFrom(r *codec.Reader) {
	m.SQL = r.String()
	m.Args = sql.ReadDatums(r)
	m.TraceID = r.Uvarint()
	m.SpanID = r.Uvarint()
}

func (m *Result) appendTo(b []byte) []byte {
	b = codec.AppendStrings(b, m.Columns)
	b = codec.AppendUvarint(b, uint64(len(m.Rows)))
	for _, row := range m.Rows {
		b = sql.AppendDatums(b, row)
	}
	b = codec.AppendVarint(b, int64(m.RowsAffected))
	return codec.AppendString(b, m.Err)
}

func (m *Result) readFrom(r *codec.Reader) {
	m.Columns = r.Strings()
	m.Rows = nil
	if n := r.Count(1); n > 0 {
		m.Rows = make([][]sql.Datum, n)
		for i := range m.Rows {
			m.Rows[i] = sql.ReadDatums(r)
		}
	}
	m.RowsAffected = r.Int()
	m.Err = r.String()
}

func (m *Serialize) appendTo(b []byte) []byte { return b }
func (m *Serialize) readFrom(*codec.Reader)   {}

func (m *Serialized) appendTo(b []byte) []byte {
	return codec.AppendString(codec.AppendBytes(b, m.Data), m.Err)
}

func (m *Serialized) readFrom(r *codec.Reader) {
	m.Data = r.Bytes()
	m.Err = r.String()
}

func (m *Restore) appendTo(b []byte) []byte { return codec.AppendBytes(b, m.Data) }
func (m *Restore) readFrom(r *codec.Reader) { m.Data = r.Bytes() }

func (m *Terminate) appendTo(b []byte) []byte { return b }
func (m *Terminate) readFrom(*codec.Reader)   {}

// frameHeaderLen is the type byte plus the 4-byte payload length.
const frameHeaderLen = 5

// WriteMessage frames and writes one message: header and payload are built
// in one buffer and issued as a single Write.
func WriteMessage(w io.Writer, typ byte, m Message) error {
	b := make([]byte, frameHeaderLen, 256)
	b = m.appendTo(codec.AppendVersion(b))
	return writeFrame(w, typ, b)
}

// WriteFrame writes an already-encoded payload (one read by ReadMessage) as
// one frame, in a single Write.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	b := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	return writeFrame(w, typ, append(b, payload...))
}

// writeFrame fills in the header of a frame buffer whose payload follows
// frameHeaderLen reserved bytes, and writes it.
func writeFrame(w io.Writer, typ byte, b []byte) error {
	n := len(b) - frameHeaderLen
	if n > maxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	b[0] = typ
	binary.BigEndian.PutUint32(b[1:frameHeaderLen], uint32(n))
	_, err := w.Write(b)
	return err
}

// ReadMessage reads one frame, returning its type and raw payload.
func ReadMessage(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// Decode parses a payload into m, which must be the message type the
// frame's type byte names.
func Decode(payload []byte, m Message) error {
	r := codec.NewReader(payload)
	m.readFrom(&r)
	if err := r.Finish(); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", m, err)
	}
	return nil
}

// Client is a SQL client connection.
type Client struct {
	conn net.Conn
}

// Connect dials addr and performs the startup handshake.
func Connect(addr string, params map[string]string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ConnectOn(conn, params)
}

// ConnectOn performs the startup handshake on an existing connection.
func ConnectOn(conn net.Conn, params map[string]string) (*Client, error) {
	if err := WriteMessage(conn, MsgStartup, &Startup{Params: params}); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ != MsgAuth {
		conn.Close()
		return nil, fmt.Errorf("wire: expected auth response, got %c", typ)
	}
	var auth Auth
	if err := Decode(payload, &auth); err != nil {
		conn.Close()
		return nil, err
	}
	if !auth.OK {
		conn.Close()
		return nil, &AuthError{Msg: auth.Msg}
	}
	return &Client{conn: conn}, nil
}

// AuthError reports a rejected startup.
type AuthError struct{ Msg string }

// Error implements error.
func (e *AuthError) Error() string { return "wire: authentication failed: " + e.Msg }

// Query runs one statement and returns its result.
func (c *Client) Query(sqlText string, args ...sql.Datum) (*Result, error) {
	if err := WriteMessage(c.conn, MsgQuery, &Query{SQL: sqlText, Args: args}); err != nil {
		return nil, err
	}
	typ, payload, err := ReadMessage(c.conn)
	if err != nil {
		return nil, err
	}
	if typ != MsgResult {
		return nil, fmt.Errorf("wire: expected result, got %c", typ)
	}
	var res Result
	if err := Decode(payload, &res); err != nil {
		return nil, err
	}
	if res.Err != "" {
		return &res, fmt.Errorf("wire: %s", res.Err)
	}
	return &res, nil
}

// Close terminates the connection gracefully.
func (c *Client) Close() error {
	_ = WriteMessage(c.conn, MsgTerminate, &Terminate{})
	return c.conn.Close()
}
