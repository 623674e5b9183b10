package proxy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"crdbserverless/internal/trace"
	"crdbserverless/internal/wire"
)

// proxiedConn is one client connection pinned to a backend SQL node. The
// proxy relays whole frames; because the protocol is strict request/response,
// the moments between a response and the next request are exactly the idle
// windows in which a session may migrate (§4.2.4: migration happens when the
// client session is idle).
type proxiedConn struct {
	proxy *Proxy
	// id is the proxy-assigned accept sequence number; iteration over the
	// connection set sorts by it so migration and shutdown visit
	// connections in a deterministic order.
	id         uint64
	client     net.Conn
	tenantName string
	origin     string
	startup    wire.Startup
	// span is the connection's root trace span (nil when tracing is off).
	span *trace.Span

	mu      sync.Mutex
	backend net.Conn
	baddr   string

	migrateCh chan string
	closedCh  chan struct{}
	closeOnce sync.Once
}

// connectBackend dials the SQL node and forwards the startup handshake.
func (pc *proxiedConn) connectBackend(addr string, startup *wire.Startup) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	if err := wire.WriteMessage(conn, wire.MsgStartup, startup); err != nil {
		conn.Close()
		return err
	}
	typ, payload, err := wire.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return err
	}
	if typ != wire.MsgAuth {
		conn.Close()
		return fmt.Errorf("proxy: unexpected handshake response %c", typ)
	}
	var auth wire.Auth
	if err := wire.Decode(payload, &auth); err != nil {
		conn.Close()
		return err
	}
	if !auth.OK {
		conn.Close()
		return &wire.AuthError{Msg: auth.Msg}
	}
	pc.mu.Lock()
	pc.backend = conn
	pc.baddr = addr
	pc.mu.Unlock()
	return nil
}

func (pc *proxiedConn) backendAddr() string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.baddr
}

func (pc *proxiedConn) close() {
	pc.closeOnce.Do(func() {
		close(pc.closedCh)
		pc.client.Close()
		pc.mu.Lock()
		if pc.backend != nil {
			pc.backend.Close()
		}
		pc.mu.Unlock()
	})
}

type frame struct {
	typ     byte
	payload []byte
	err     error
}

// relay runs the request/response pump until either side closes. Between
// exchanges — while the client is idle — pending migration requests execute.
func (pc *proxiedConn) relay() {
	defer pc.close()

	clientFrames := make(chan frame)
	go func() {
		for {
			typ, payload, err := wire.ReadMessage(pc.client)
			select {
			case clientFrames <- frame{typ, payload, err}:
				if err != nil {
					return
				}
			case <-pc.closedCh:
				return
			}
		}
	}()

	for {
		select {
		case <-pc.closedCh:
			return
		case to := <-pc.migrateCh:
			if err := pc.migrate(to); err != nil {
				// Migration failure must not disturb the client; the
				// session simply stays where it is.
				continue
			}
		case fr := <-clientFrames:
			if fr.err != nil {
				return
			}
			if fr.typ == wire.MsgTerminate {
				pc.mu.Lock()
				if pc.backend != nil {
					wire.WriteMessage(pc.backend, wire.MsgTerminate, &wire.Terminate{})
				}
				pc.mu.Unlock()
				return
			}
			if pc.proxy.cfg.Faults.Should("proxy.backend.kill") {
				// Injected SQL-node death between exchanges. The session must
				// re-route to a healthy backend; only if no backend can be
				// reached does the client connection die with it.
				if err := pc.killBackendAndReconnect(); err != nil {
					return
				}
			}
			if err := pc.exchange(fr); err != nil {
				return
			}
		}
	}
}

// exchange forwards one request and pumps its response back. On a traced
// connection, queries are decoded, stamped with a fresh exchange span's
// IDs, and re-encoded, so the SQL node continues the trace under it.
func (pc *proxiedConn) exchange(fr frame) error {
	pc.mu.Lock()
	backend := pc.backend
	pc.mu.Unlock()
	if backend == nil {
		return errors.New("proxy: no backend")
	}
	if fr.typ == wire.MsgQuery && pc.span != nil {
		var q wire.Query
		if err := wire.Decode(fr.payload, &q); err == nil {
			sp := pc.span.StartChild("proxy.exchange")
			defer sp.Finish()
			q.TraceID = sp.TraceID()
			q.SpanID = sp.SpanID()
			if err := wire.WriteMessage(backend, wire.MsgQuery, &q); err != nil {
				return err
			}
			typ, payload, err := wire.ReadMessage(backend)
			if err != nil {
				return err
			}
			return wire.WriteFrame(pc.client, typ, payload)
		}
	}
	if err := wire.WriteFrame(backend, fr.typ, fr.payload); err != nil {
		return err
	}
	typ, payload, err := wire.ReadMessage(backend)
	if err != nil {
		return err
	}
	return wire.WriteFrame(pc.client, typ, payload)
}

// killBackendAndReconnect severs the current backend connection (modeling a
// SQL-node crash mid-session) and re-routes the session to a healthy node via
// the directory. Unlike the idle-window serialize/restore path, session state
// cannot be captured from a dead node: a fresh startup handshake re-establishes
// the session, while the client's TCP connection survives untouched.
func (pc *proxiedConn) killBackendAndReconnect() error {
	pc.mu.Lock()
	old := pc.backend
	oldAddr := pc.baddr
	pc.backend = nil
	pc.mu.Unlock()
	if old != nil {
		old.Close()
	}
	pc.proxy.releaseBackend(oldAddr)
	backends, err := pc.proxy.cfg.Directory.Lookup(context.Background(), pc.tenantName)
	if err != nil {
		return err
	}
	// Prefer a node other than the one that just died; fall back to it only
	// when it is the sole backend (the directory may have restarted it).
	candidates := backends[:0:0]
	for _, b := range backends {
		if b.Addr != oldAddr {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		candidates = backends
	}
	backend, err := pc.proxy.pickBackend(candidates)
	if err != nil {
		return err
	}
	startup := pc.startup
	if err := pc.connectBackend(backend.Addr, &startup); err != nil {
		pc.proxy.releaseBackend(backend.Addr)
		return err
	}
	pc.span.Eventf("backend %s died; session re-routed to %s", oldAddr, backend.Addr)
	pc.proxy.noteBackendReconnect()
	return nil
}

// migrate executes the session-migration protocol: serialize on the old
// node, restore on the new one, swap connections (§4.2.4). The client never
// observes the swap.
func (pc *proxiedConn) migrate(toAddr string) error {
	pc.mu.Lock()
	old := pc.backend
	oldAddr := pc.baddr
	pc.mu.Unlock()
	if old == nil {
		return errors.New("proxy: no backend to migrate from")
	}
	if oldAddr == toAddr {
		return nil
	}
	sp := pc.span.StartChild("proxy.migrate")
	defer sp.Finish()
	sp.SetAttr("proxy.from", oldAddr)
	sp.SetAttr("proxy.to", toAddr)
	err := pc.runMigration(sp, old, oldAddr, toAddr)
	if err != nil {
		sp.Eventf("migration failed: %v", err)
	}
	return err
}

// runMigration performs the three-step migration handshake, recording
// each step on sp.
func (pc *proxiedConn) runMigration(sp *trace.Span, old net.Conn, oldAddr, toAddr string) error {
	// 1. Capture the session. The node refuses if the session is not idle
	// (open transaction), in which case we simply don't migrate now.
	if err := wire.WriteMessage(old, wire.MsgSerialize, &wire.Serialize{}); err != nil {
		return err
	}
	typ, payload, err := wire.ReadMessage(old)
	if err != nil || typ != wire.MsgSerialized {
		return fmt.Errorf("proxy: serialize handshake failed: %v", err)
	}
	var ser wire.Serialized
	if err := wire.Decode(payload, &ser); err != nil {
		return err
	}
	if ser.Err != "" {
		return errors.New(ser.Err)
	}
	sp.Eventf("session serialized on %s (%d bytes)", oldAddr, len(ser.Data))

	// 2. Restore on the new node using the revival token inside the blob —
	// no client re-authentication.
	conn, err := net.Dial("tcp", toAddr)
	if err != nil {
		return err
	}
	if err := wire.WriteMessage(conn, wire.MsgRestore, &wire.Restore{Data: ser.Data}); err != nil {
		conn.Close()
		return err
	}
	typ, payload, err = wire.ReadMessage(conn)
	if err != nil || typ != wire.MsgAuth {
		conn.Close()
		return fmt.Errorf("proxy: restore handshake failed: %v", err)
	}
	var auth wire.Auth
	if err := wire.Decode(payload, &auth); err != nil || !auth.OK {
		conn.Close()
		return fmt.Errorf("proxy: restore rejected: %s", auth.Msg)
	}
	sp.Eventf("session restored on %s", toAddr)

	// 3. Swap.
	pc.mu.Lock()
	pc.backend = conn
	pc.baddr = toAddr
	pc.mu.Unlock()
	old.Close()
	pc.proxy.releaseBackend(oldAddr)
	pc.proxy.mu.Lock()
	pc.proxy.mu.connsPerBackend[toAddr]++
	pc.proxy.mu.Unlock()
	pc.proxy.noteMigration()
	return nil
}
