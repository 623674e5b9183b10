package kvserver

import (
	"math"
	"testing"

	"crdbserverless/internal/codec/codectest"
	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
)

func FuzzCommand(f *testing.F) {
	ts := hlc.Timestamp{WallTime: 1_700_000_000_000_000_000, Logical: 3}
	codectest.Fuzz(f, decodeCommand, encodeCommand,
		[][]byte{codectest.WithCount(), codectest.WithCount(1, 0)},
		command{},
		command{Mutations: []mutation{
			{Kind: mutPut, Key: keys.Key("k"), Value: []byte("v"), TxnID: 7},
			{Kind: mutResolve, Key: keys.Key("k"), TxnID: 7, Commit: true},
		}},
		command{Mutations: []mutation{
			{Kind: mutDelete, Key: keys.Key("gone"), Ts: ts},
			{Kind: mutResolve, Key: keys.Key("k"), TxnID: math.MaxUint64, Commit: true, CommitTs: hlc.Timestamp{WallTime: -1, Logical: math.MinInt32}},
		}},
	)
}

func FuzzSnapshot(f *testing.F) {
	codectest.Fuzz(f, decodeSnapshot, encodeSnapshot,
		[][]byte{codectest.WithCount(), codectest.WithCount(1)},
		nil,
		[]enginePair{{Key: appliedKey(1), Value: keys.EncodeUint64(nil, 12)}},
		[]enginePair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b")}},
	)
}
