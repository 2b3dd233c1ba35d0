#!/bin/sh
# check.sh — the PR gate: vet, build, and race-test the packages where
# concurrency bugs would hide (the observability substrate, the WAL
# group-commit engine, the batch codec, the engine, and the lock-free
# skip list and memtable under it), then run the
# allocation-regression tests in a separate non-race pass (the race
# detector's instrumentation allocates, so those tests carry
# //go:build !race), then run a bounded crash-consistency matrix and the
# randomized concurrent oracle test under -race, and finally the
# background-fault suite (health state machine, degraded retry,
# read-only quarantine) under -race. CRASHTEST_SEED and CRASHTEST_OPS
# override the crash/oracle workload (a failing CI run prints the pair
# to replay it). The allocation gates, the crash matrices, the oracle
# and the serializability suites run at -cpu 1,2,4, so each invariant is
# checked under real parallelism as well as on one P.
# The full suite is `go test ./...`.
set -eux

cd "$(dirname "$0")/.."

fmt_dirty=$(gofmt -l .)
if [ -n "$fmt_dirty" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt_dirty" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./internal/obs ./internal/core ./internal/wal ./internal/batch ./internal/skiplist ./internal/memtable
go test -cpu 1,2,4 . ./internal/core ./internal/obs ./internal/shard -run 'Allocs'
go test -race -short -cpu 1,2,4 ./internal/faultfs ./internal/oracle ./internal/crashtest
go test -race -run 'Health|Degraded|ReadOnly' ./internal/...

# Network layer: the shared frame codec, the pipelining/coalescing
# server, and the client SDK — all under -race (8-client oracle test,
# sentinel round-trip across the wire, retry vs degraded store). Then
# the server's own smoke gate: a full client/server sandwich on
# loopback with a goroutine-leak check after shutdown (docs/NETWORK.md).
go test -race ./internal/wire ./internal/server ./clsmclient
go run ./cmd/clsm-server -selftest

# Stall-profile smoke gate: the auto-tuned admission controller must beat
# the legacy binary gate's worst-window put latency without giving up
# meaningful throughput (docs/SCHEDULING.md; recorded runs in
# EXPERIMENTS.md). Thresholds are deliberately looser than the recorded
# numbers — this is a regression tripwire, not a benchmark.
go run ./cmd/clsm-bench -stall-profile -scale smoke -stall-out /tmp/clsm_stall_check.json
awk '
/"worst_window_max_improvement"/ { imp = $2 + 0 }
/"throughput_ratio"/            { tp  = $2 + 0 }
END {
	if (imp <= 1.0 || tp < 0.90) {
		printf "stall gate FAILED: improvement %.2fx (need >1.0), throughput ratio %.2f (need >=0.90)\n", imp, tp
		exit 1
	}
	printf "stall gate ok: improvement %.2fx, throughput ratio %.2f\n", imp, tp
}' /tmp/clsm_stall_check.json

# Sharding gate (docs/SHARDING.md): the shard facade's own -race suite
# (cross-shard MultiGet, merged iterators, batch splitting vs the
# oracle model), the 2-shard crash matrix, the public sharded API, and
# the sharded-engine server path — then a smoke-scale profile run as an
# N=1 parity tripwire. The smoke parity run is a single short pair, so
# the threshold is deliberately loose (±25%); BENCH_shard.json records
# the median-of-pairs number at small scale.
go test -race -short ./internal/shard
go test -race -short -cpu 1,2,4 -run 'Shard' . ./internal/server ./internal/crashtest
go run ./cmd/clsm-bench -shard-profile -scale smoke -shard-out /tmp/clsm_shard_check.json
awk '
/"speedup"/ { sp = $2 + 0 }
/"ratio"/   { if (!par) par = $2 + 0 }   # first "ratio" is the parity block
END {
	if (sp < 1.0 || par < 0.75 || par > 1.33) {
		printf "shard gate FAILED: speedup %.2fx (need >=1.0), parity %.2f (need 0.75..1.33)\n", sp, par
		exit 1
	}
	printf "shard gate ok: speedup %.2fx, N=1 parity %.2f\n", sp, par
}' /tmp/clsm_shard_check.json

# Transaction gate (docs/TRANSACTIONS.md): the multi-key OCC suites under
# -race — engine txns plus the 8-writer serializability check against the
# oracle's cycle-finding checker, the checker's own unit tests, the
# transactional crash matrix (torn commit records must vanish whole), and
# the remote TxnWrite path end to end — then a smoke-scale profile run as
# a sanity tripwire: every mode must make progress and the optimistic
# retry loop must converge (conflict rate strictly below 1).
go test -race -short -cpu 1,2,4 -run 'Txn|Serial' . ./internal/core ./internal/oracle ./internal/shard ./internal/crashtest ./internal/server ./clsmclient
go run ./cmd/clsm-bench -txn-profile -scale smoke -txn-out /tmp/clsm_txn_check.json
awk '
/"txn_vs_batch_uniform"/ { ratio = $2 + 0 }
/"hot_conflict_rate"/    { hot = $2 + 0 }
END {
	if (ratio <= 0.05 || hot >= 1.0) {
		printf "txn gate FAILED: txn/batch ratio %.3f (need >0.05), hot conflict rate %.3f (need <1.0)\n", ratio, hot
		exit 1
	}
	printf "txn gate ok: txn/batch ratio %.3f, hot conflict rate %.3f\n", ratio, hot
}' /tmp/clsm_txn_check.json

# Backup gate (docs/BACKUP.md): the backup engine's own -race suite
# (incremental skipping, abort GC, hash-verified restore,
# restore-after-quarantine), the checkpoint/backup surfaces across the
# engine and public API, the fault-injected backup crash matrix, the
# graceful server drain, then a smoke-scale online-backup profile as a
# tripwire: backups must complete under concurrent writers, the restored
# image must be non-empty, and back-to-back backups must not cost more
# than ~2/3 of put throughput (deliberately loose — the recorded numbers
# live in BENCH_backup.json).
go test -race ./internal/backup
go test -race -short -run 'Backup|Checkpoint|Restore' . ./internal/version ./internal/core ./internal/crashtest
go test -race -run 'Shutdown' ./internal/server
go run ./cmd/clsm-bench -backup-profile -scale smoke -backup-out /tmp/clsm_backup_check.json
awk '
/"throughput_ratio"/  { ratio = $2 + 0 }
/"backups_completed"/ { n = $2 + 0 }
/"restored_keys"/     { rk = $2 + 0 }
END {
	if (ratio < 0.33 || n < 1 || rk < 1) {
		printf "backup gate FAILED: throughput ratio %.2f (need >=0.33), %d backups, %d restored keys\n", ratio, n, rk
		exit 1
	}
	printf "backup gate ok: throughput ratio %.2f, %d backups completed, %d keys restored\n", ratio, n, rk
}' /tmp/clsm_backup_check.json

# Value-log gate (docs/VALUELOG.md): the segmented log's own unit suite
# and the core integration tests under -race, the fault-injected vlog
# crash matrix (pointer durability ordering, GC retirement barriers,
# torn-tail recovery), the inline-path allocation gates re-pinned with a
# threshold configured, then a smoke-scale separation profile as a
# tripwire: separated 4 KiB puts must beat inline on throughput or
# rewrite bytes, and the small-value parity cell must stay within ±15%
# (looser than the ±5% recorded in BENCH_vlog.json — smoke runs are
# noisy).
go test -race ./internal/vlog
go test -race -short -run 'Vlog' . ./internal/core ./internal/crashtest
go test ./internal/core -run 'AllocsWithThreshold'
go run ./cmd/clsm-bench -vlog-profile -scale smoke -vlog-out /tmp/clsm_vlog_check.json
awk '
/"put_speedup"/         { sp  = $2 + 0 }
/"rewrite_reduction"/   { rw  = $2 + 0 }
/"small_value_parity"/  { par = $2 + 0 }
END {
	if ((sp < 1.0 && rw < 1.0) || par < 0.85 || par > 1.15) {
		printf "vlog gate FAILED: speedup %.2fx / rewrite reduction %.2fx (need one >=1.0), parity %.3f (need 0.85..1.15)\n", sp, rw, par
		exit 1
	}
	printf "vlog gate ok: speedup %.2fx, rewrite reduction %.2fx, parity %.3f\n", sp, rw, par
}' /tmp/clsm_vlog_check.json
