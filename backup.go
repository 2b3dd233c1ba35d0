package clsm

import (
	"fmt"
	"path/filepath"
	"time"

	"clsm/internal/backup"
	"clsm/internal/core"
	"clsm/internal/obs"
	"clsm/internal/storage"
)

// BackupManifest describes one completed backup: its id, the id it was
// incremental against, and the content-addressed remote object behind
// every file of every store image (one image per shard for sharded
// stores). See docs/BACKUP.md and the format in docs/FORMATS.md.
type BackupManifest = backup.Manifest

// RemoteOptions tunes how a BackupEngine talks to its remote tier.
type RemoteOptions struct {
	// MaxAttempts caps upload/download attempts per object (default 5).
	// Transient remote errors are retried with capped jittered backoff;
	// anything else aborts the backup cleanly (partial uploads removed,
	// the previous backup stays the restore point).
	MaxAttempts int
	// RetryBase and RetryCap bound the per-object retry backoff (defaults
	// 25ms / 2s).
	RetryBase time.Duration
	RetryCap  time.Duration
}

// BackupEngine ships incremental backups of one or more stores to a
// remote object tier and restores them; see DB.Backup and
// BackupEngine.Restore. The engine itself is stateless — all state lives
// in the remote tier — so any number of engines may point at the same
// remote, but backups against one remote must not run concurrently.
type BackupEngine struct {
	remote storage.FS
	opts   RemoteOptions
}

// NewBackupEngine opens a backup engine over a local directory acting as
// the remote object tier. (Object-store remotes plug in at the same seam:
// anything satisfying the engine's flat put/get/list/delete contract.)
func NewBackupEngine(remotePath string, opts RemoteOptions) (*BackupEngine, error) {
	if remotePath == "" {
		return nil, fmt.Errorf("%w: backup engine requires a remote path", ErrInvalidOptions)
	}
	fs, err := storage.NewOSFS(remotePath)
	if err != nil {
		return nil, err
	}
	return &BackupEngine{remote: fs, opts: opts}, nil
}

// NewMemBackupEngine opens a backup engine over a volatile in-memory
// remote — for tests and demos.
func NewMemBackupEngine(opts RemoteOptions) *BackupEngine {
	return &BackupEngine{remote: storage.NewMemFS(), opts: opts}
}

// engine lowers onto the internal engine, wiring the store's observer so
// backup counters and events land in the same substrate Stats serves.
func (be *BackupEngine) engine(o *obs.Observer) *backup.Engine {
	return backup.New(be.remote, backup.Options{
		MaxAttempts: be.opts.MaxAttempts,
		RetryBase:   be.opts.RetryBase,
		RetryCap:    be.opts.RetryCap,
		Observer:    o,
	})
}

// backupSources lists the stores a backup of this DB ships: one source
// per shard, labeled with its directory prefix ("" for the flat layout).
func (db *DB) backupSources() []backup.Source {
	srcs := make([]backup.Source, db.sh.NumShards())
	for i := range srcs {
		srcs[i] = backup.Source{Prefix: shardDir(db.shards, i), DB: db.sh.Shard(i)}
	}
	return srcs
}

// Checkpoint materializes a consistent, independently openable image of
// the store in dir: the memtable is flushed, then every live sstable is
// hard-linked (copied where linking is impossible) alongside a snapshot
// MANIFEST and CURRENT. The checkpoint shares no mutable state with the
// live store — compactions proceed underneath it, deletions of its tables
// are deferred until the checkpoint completes — and opens as an ordinary
// store. On a sharded store each shard checkpoints into its own
// subdirectory under dir (each shard's image individually consistent,
// exactly like sharded snapshots) and the shard marker is written so dir
// reopens with the same layout. Returns the number of tables linked.
func (db *DB) Checkpoint(dir string) (int, error) {
	if dir == "" {
		return 0, fmt.Errorf("%w: checkpoint requires a target directory", ErrInvalidOptions)
	}
	if err := writeShardMarker(dir, db.shards); err != nil {
		return 0, err
	}
	total := 0
	for i := 0; i < db.sh.NumShards(); i++ {
		dst, err := storage.NewOSFS(filepath.Join(dir, shardDir(db.shards, i)))
		if err != nil {
			return total, err
		}
		n, err := db.sh.Shard(i).Checkpoint(dst)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Backup ships an incremental backup of the store to the engine's remote
// tier: a checkpoint of every shard, uploaded content-addressed so tables
// the previous backup already shipped are skipped, then a backup manifest
// and the LATEST commit pointer. The work runs as a backup-band job on
// the store's unified scheduler — the lowest priority class, so a long
// ship never starves a flush or compaction. On failure the run's partial
// uploads are removed and the error wraps ErrBackupFailed; the previous
// backup remains the restore point.
func (db *DB) Backup(be *BackupEngine) (*BackupManifest, error) {
	first := db.sh.Shard(0)
	eng := be.engine(first.Observer())
	var m *BackupManifest
	var err error
	if jerr := first.RunBackupJob(func() { m, err = eng.Backup(db.backupSources()...) }); jerr != nil {
		return nil, jerr
	}
	return m, err
}

// Latest returns the id and manifest of the newest completed backup in
// the remote tier, or ErrNoBackup when none exists.
func (be *BackupEngine) Latest() (uint64, *BackupManifest, error) {
	return be.engine(obs.New()).Latest()
}

// Restore materializes backup id (0 selects the latest) into path, which
// must not hold a live store. Every object is re-hashed against its
// content address before it is written — a corrupted or torn remote
// object fails the restore with ErrBackupCorrupt instead of producing a
// silently wrong store. A sharded backup restores each shard image into
// its subdirectory and rewrites the shard marker, so path reopens with
// WithShards exactly like the original. The restored directory opens as
// an ordinary store serving every write acknowledged before the backup
// began.
func (be *BackupEngine) Restore(id uint64, path string) (*BackupManifest, error) {
	if path == "" {
		return nil, fmt.Errorf("%w: restore requires a target directory", ErrInvalidOptions)
	}
	m, err := be.engine(obs.New()).Restore(id, func(prefix string) (storage.FS, error) {
		return storage.NewOSFS(filepath.Join(path, prefix))
	})
	if err != nil {
		return nil, err
	}
	shards := 0 // the flat layout's single image has the empty prefix
	for _, st := range m.Stores {
		if st.Prefix != "" {
			shards++
		}
	}
	if err := writeShardMarker(path, shards); err != nil {
		return nil, err
	}
	return m, nil
}

// Every shard engine satisfies the checkpoint contract the backup engine
// consumes.
var _ backup.Checkpointer = (*core.DB)(nil)
