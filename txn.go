package clsm

import (
	"context"

	"clsm/internal/core"
	"clsm/internal/shard"
)

// ReadCheck is one read-set assertion of a stateless remote transaction;
// see DB.TxnWrite and docs/TRANSACTIONS.md.
type ReadCheck = core.ReadCheck

// Txn is a multi-key optimistic transaction: reads are served at a
// snapshot timestamp and recorded in a read set, writes are buffered, and
// Commit validates that no read- or write-set key changed since the
// snapshot before applying the write set as one atomic batch. On conflict
// Commit returns a wrapped ErrTxnConflict and the caller retries from
// scratch — the paper's Algorithm 3 read-modify-write generalized from
// one key to many.
//
// A Txn is not safe for concurrent use and pins engine versions until
// Commit or Rollback; always finish it (defer txn.Rollback() is safe).
// On a one-engine store the snapshot is taken at Begin. With more than
// one shard transactions are single-shard: the first operation pins the
// owning shard (and takes the snapshot there) and any key routing
// elsewhere fails with ErrInvalidOptions (see docs/SHARDING.md for why
// atomicity stops at the shard boundary).
type Txn = shard.Txn

// BeginTxn starts a transaction.
func (db *DB) BeginTxn() (*Txn, error) { return db.sh.BeginTxn() }

// BeginTxnCtx is BeginTxn with a context, checked once at Begin.
func (db *DB) BeginTxnCtx(ctx context.Context) (*Txn, error) { return db.sh.BeginTxnCtx(ctx) }

// Txn runs fn inside a transaction: commit if fn returns nil, roll back
// (returning fn's error) otherwise. Conflicts surface as a wrapped
// ErrTxnConflict; retry loops belong to the caller, whose fn must be safe
// to re-run:
//
//	for {
//		err := db.Txn(func(t *clsm.Txn) error {
//			v, _, _ := t.Get(k)
//			return t.Put(k, bump(v))
//		})
//		if !errors.Is(err, clsm.ErrTxnConflict) {
//			return err
//		}
//	}
func (db *DB) Txn(fn func(*Txn) error) error { return db.sh.Txn(fn) }

// TxnCtx is Txn with cancellation (see Txn.CommitCtx).
func (db *DB) TxnCtx(ctx context.Context, fn func(*Txn) error) error { return db.sh.TxnCtx(ctx, fn) }

// TxnWriteCtx commits b only if every ReadCheck still holds: each check
// key's current value (or absence) must equal what the caller observed.
// It is the engine half of the wire protocol's single-round-trip remote
// transaction (clsmclient.TxnWrite) and is validated and applied through
// the same optimistic path as Txn. A failed check returns a wrapped
// ErrTxnConflict. On a sharded store all keys must route to one shard.
func (db *DB) TxnWriteCtx(ctx context.Context, checks []ReadCheck, b *Batch) error {
	return db.sh.TxnWriteCtx(ctx, checks, b)
}
