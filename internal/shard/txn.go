package shard

import (
	"context"
	"fmt"

	"clsm/internal/batch"
	"clsm/internal/core"
)

// Txn is an optimistic transaction (core.Txn) on the facade. On a
// one-shard store it begins on that shard at Begin, exactly like
// core.DB.BeginTxnCtx: the snapshot is taken there and ctx or closed-store
// errors surface from Begin.
//
// With more than one shard, transactions are single-shard: shards are
// fully independent engines with independent oracles and WALs, so a
// cross-shard transaction would need a distributed commit protocol the
// store deliberately does not have (the same boundary batch atomicity
// stops at — see docs/SHARDING.md). The owning shard is pinned by the
// first operation's key; any later key routing to a different shard fails
// that operation with ErrInvalidOptions, leaving the transaction usable on
// its pinned shard. Because the shard is unknown until the first
// operation, the snapshot is taken there, not at Begin — indistinguishable
// to the caller, who cannot have observed anything through the
// transaction before its first read.
type Txn struct {
	db    *DB
	ctx   context.Context // begin context, applied at the deferred begin
	inner *core.Txn
	shard int // pinned shard; -1 until the first operation
	done  bool
}

// BeginTxn starts a transaction (see Txn).
func (db *DB) BeginTxn() (*Txn, error) { return db.BeginTxnCtx(nil) }

// BeginTxnCtx is BeginTxn with a context, checked when the engine
// transaction begins: at once on a one-shard store, at the first
// operation otherwise.
func (db *DB) BeginTxnCtx(ctx context.Context) (*Txn, error) {
	if db.closed.Load() {
		return nil, core.ErrClosed
	}
	t := &Txn{db: db, ctx: ctx, shard: -1}
	if len(db.shards) == 1 {
		if _, err := t.pin(nil); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// pin resolves key's shard, beginning the underlying engine transaction
// on first use and rejecting keys owned by any other shard after that.
func (t *Txn) pin(key []byte) (*core.Txn, error) {
	if t.done {
		return nil, fmt.Errorf("transaction already finished: %w", core.ErrClosed)
	}
	s := IndexOf(key, len(t.db.shards))
	if t.inner == nil {
		inner, err := t.db.shards[s].BeginTxnCtx(t.ctx)
		if err != nil {
			return nil, err
		}
		t.shard, t.inner = s, inner
		return inner, nil
	}
	if s != t.shard {
		return nil, fmt.Errorf(
			"%w: transaction pinned to shard %d cannot touch key %q on shard %d (transactions are single-shard)",
			core.ErrInvalidOptions, t.shard, key, s)
	}
	return t.inner, nil
}

// Get reads key at the transaction's snapshot, seeing the transaction's
// own buffered writes first (read-your-writes). External reads join the
// read set validated at Commit.
func (t *Txn) Get(key []byte) (value []byte, ok bool, err error) {
	inner, err := t.pin(key)
	if err != nil {
		return nil, false, err
	}
	return inner.Get(key)
}

// Has reports whether key is visible to the transaction.
func (t *Txn) Has(key []byte) (bool, error) {
	_, ok, err := t.Get(key)
	return ok, err
}

// Put buffers (key, value); nothing is visible outside the transaction
// until Commit. Key and value are copied.
func (t *Txn) Put(key, value []byte) error {
	inner, err := t.pin(key)
	if err != nil {
		return err
	}
	return inner.Put(key, value)
}

// Delete buffers a deletion marker for key.
func (t *Txn) Delete(key []byte) error {
	inner, err := t.pin(key)
	if err != nil {
		return err
	}
	return inner.Delete(key)
}

// Pending returns the number of buffered writes.
func (t *Txn) Pending() int {
	if t.inner == nil {
		return 0
	}
	return t.inner.Pending()
}

// Shard returns the pinned shard index, or -1 if no operation has run.
func (t *Txn) Shard() int { return t.shard }

// Rollback discards the transaction and releases its snapshot. It is a
// no-op on a finished transaction, so deferring it is always safe.
func (t *Txn) Rollback() {
	if t.done {
		return
	}
	t.done = true
	if t.inner != nil {
		t.inner.Rollback()
	}
}

// Commit validates and applies the transaction on its pinned shard. On
// conflict it returns a wrapped ErrTxnConflict; the transaction is
// finished either way (retry by beginning a new one). A multi-shard
// transaction that never ran an operation commits trivially.
func (t *Txn) Commit() error { return t.CommitCtx(nil) }

// CommitCtx is Commit with cancellation for the pre-admission waits
// (see core.DB.PutCtx). Once validation starts the commit runs to
// completion.
func (t *Txn) CommitCtx(ctx context.Context) error {
	if t.done {
		return fmt.Errorf("transaction already finished: %w", core.ErrClosed)
	}
	t.done = true
	if t.inner == nil {
		return nil
	}
	return t.inner.CommitCtx(ctx)
}

// Txn runs fn inside a transaction: commit on nil, roll back otherwise
// (see core.DB.Txn).
func (db *DB) Txn(fn func(*Txn) error) error { return db.TxnCtx(nil, fn) }

// TxnCtx is Txn with cancellation.
func (db *DB) TxnCtx(ctx context.Context, fn func(*Txn) error) error {
	t, err := db.BeginTxnCtx(ctx)
	if err != nil {
		return err
	}
	if err := fn(t); err != nil {
		t.Rollback()
		return err
	}
	return t.CommitCtx(ctx)
}

// TxnWriteCtx routes a stateless remote transaction to the single shard
// owning every check and entry key, rejecting cross-shard requests with
// ErrInvalidOptions before any engine work happens.
func (db *DB) TxnWriteCtx(ctx context.Context, checks []core.ReadCheck, b *batch.Batch) error {
	if db.closed.Load() {
		return core.ErrClosed
	}
	n := len(db.shards)
	s := -1
	route := func(key []byte) error {
		i := IndexOf(key, n)
		if s == -1 {
			s = i
			return nil
		}
		if i != s {
			return fmt.Errorf(
				"%w: transactional write touches shard %d and shard %d (key %q); transactions are single-shard",
				core.ErrInvalidOptions, s, i, key)
		}
		return nil
	}
	for i := range checks {
		if err := route(checks[i].Key); err != nil {
			return err
		}
	}
	if b != nil {
		for _, e := range b.Entries() {
			if err := route(e.Key); err != nil {
				return err
			}
		}
	}
	if s == -1 {
		return nil // nothing to check, nothing to write
	}
	return db.shards[s].TxnWriteCtx(ctx, checks, b)
}
