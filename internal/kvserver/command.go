package kvserver

import (
	"fmt"

	"crdbserverless/internal/codec"
	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
)

// Commands are the units replicated through a range's raft group. The
// leaseholder evaluates a batch into logical MVCC mutations under the range
// latch; every replica applies the same mutations deterministically.

// mutationKind enumerates replicated MVCC operations.
type mutationKind int

const (
	mutPut mutationKind = iota
	mutDelete
	mutResolve
)

// mutation is one replicated MVCC operation.
type mutation struct {
	Kind     mutationKind
	Key      keys.Key
	Ts       hlc.Timestamp
	TxnID    uint64
	Value    []byte
	Commit   bool          // for mutResolve
	CommitTs hlc.Timestamp // for mutResolve
}

// command is the replicated payload: an ordered list of mutations.
type command struct {
	Mutations []mutation
}

// mutationMinSize is the smallest encoded mutation: kind, key length, two
// timestamp fields, txn ID, value length, commit flag, two timestamp fields.
const mutationMinSize = 9

func encodeCommand(c command) []byte {
	size := 2
	for i := range c.Mutations {
		// 40 bytes covers a typical mutation's varints and flags.
		size += len(c.Mutations[i].Key) + len(c.Mutations[i].Value) + 40
	}
	b := codec.AppendVersion(make([]byte, 0, size))
	b = codec.AppendUvarint(b, uint64(len(c.Mutations)))
	for i := range c.Mutations {
		m := &c.Mutations[i]
		b = codec.AppendVarint(b, int64(m.Kind))
		b = codec.AppendBytes(b, m.Key)
		b = appendTimestamp(b, m.Ts)
		b = codec.AppendUvarint(b, m.TxnID)
		b = codec.AppendBytes(b, m.Value)
		b = codec.AppendBool(b, m.Commit)
		b = appendTimestamp(b, m.CommitTs)
	}
	return b
}

func decodeCommand(b []byte) (command, error) {
	r := codec.NewReader(b)
	var c command
	if n := r.Count(mutationMinSize); n > 0 {
		c.Mutations = make([]mutation, n)
		for i := range c.Mutations {
			m := &c.Mutations[i]
			m.Kind = mutationKind(r.Int())
			m.Key = r.Bytes()
			m.Ts = readTimestamp(&r)
			m.TxnID = r.Uvarint()
			m.Value = r.Bytes()
			m.Commit = r.Bool()
			m.CommitTs = readTimestamp(&r)
		}
	}
	if err := r.Finish(); err != nil {
		return command{}, fmt.Errorf("kvserver: decoding command: %w", err)
	}
	return c, nil
}

func appendTimestamp(b []byte, ts hlc.Timestamp) []byte {
	return codec.AppendVarint(codec.AppendVarint(b, ts.WallTime), int64(ts.Logical))
}

func readTimestamp(r *codec.Reader) hlc.Timestamp {
	return hlc.Timestamp{WallTime: r.Varint(), Logical: r.Int32()}
}

// applyMutations applies a decoded command to an engine. It is the state
// machine transition shared by every replica. It uses the replication-side
// MVCC variants: conflict checking already ran during evaluation on the
// leaseholder, and application must succeed deterministically — including
// when a recovered store re-applies a command whose effects partially
// survived a crash (see mvcc.ApplyPut).
func applyMutations(e *lsm.Engine, c command) error {
	for _, m := range c.Mutations {
		var err error
		switch m.Kind {
		case mutPut:
			err = mvcc.ApplyPut(e, m.Key, m.Ts, m.TxnID, m.Value)
		case mutDelete:
			err = mvcc.ApplyDelete(e, m.Key, m.Ts, m.TxnID)
		case mutResolve:
			err = mvcc.ResolveIntent(e, m.Key, m.TxnID, m.Commit, m.CommitTs)
		default:
			err = fmt.Errorf("kvserver: unknown mutation kind %d", m.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
