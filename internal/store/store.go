// Package store is the persistence layer under the serving stack: a
// disk-backed content-addressed store of simulation results plus an
// append-only journal of accepted async batches. Together they make a
// wpserved restart invisible to clients — every result any client has
// ever computed is durable under its canonical engine.RunSpec.Key, and
// every async job id handed out as a 202 survives to be resumed or
// re-polled after a crash.
//
// The store is content-addressed the same way the engine's run cache
// is keyed: RunSpec.Key() is a canonical, exhaustive, process-stable
// serialization of a cell, so one key names one result forever. A key
// is stored as one file (objects/<aa>/<sha256(key)>.json) written
// atomically: marshal, write to a temp file in the same directory,
// fsync, rename, fsync the directory. Readers therefore see either
// nothing or a complete object — never a torn write — and a SIGKILL
// at any instant leaves the store loadable.
//
// Corruption (a truncated object, bit rot, a hand-edited file) is
// never fatal: a load that fails to decode or fails its key check is
// counted on store_corrupt_total and treated as a miss, so the cell
// is simply re-simulated. `wpserved -store-fsck` walks the whole
// store and reports every such object.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"wayplace/internal/api"
	"wayplace/internal/obs"
	"wayplace/internal/sim"
)

// Metric names the store registers on the installed registry.
const (
	// MetricHits / MetricMisses: result loads served from disk vs not
	// present (a corrupt object counts as a miss *and* a corruption).
	MetricHits   = "store_hits_total"
	MetricMisses = "store_misses_total"
	// MetricWrites: objects durably written (tmp+rename completed).
	MetricWrites = "store_writes_total"
	// MetricCorrupt: objects or journal records that failed to decode
	// or failed validation and were skipped.
	MetricCorrupt = "store_corrupt_total"
	// MetricWriteErrors: write-behind saves that failed to reach disk
	// (the result stays served from memory; a restart re-simulates).
	MetricWriteErrors = "store_write_errors_total"
)

// metaSchema tags the store's meta.json, which pins the base machine
// configuration fingerprint the objects were computed under.
const metaSchema = "wpstore-meta/v1"

type storeMeta struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Options configures Open.
type Options struct {
	// Dir is the store root; created if absent. Required.
	Dir string
	// Registry, when non-nil, receives the store_* instruments.
	Registry *obs.Registry
	// Fingerprint identifies the base machine configuration results
	// are computed under (Fingerprint(cfg) of the daemon's base
	// sim.Config). RunSpec.Key captures the cell, not the base
	// template, so a store directory is only valid for one base;
	// opening it under a different fingerprint is refused rather than
	// silently serving results from the wrong machine.
	Fingerprint string
	// QueueDepth bounds the write-behind queue; Save blocks once it is
	// full (disk backpressure, never unbounded memory). Default 256.
	QueueDepth int
}

// Store is the disk CAS. Load and Save are safe for concurrent use;
// Save is write-behind (a single writer goroutine performs the
// durable writes), so the simulation hot path never waits on fsync.
type Store struct {
	dir string

	hits      *obs.Counter
	misses    *obs.Counter
	writes    *obs.Counter
	corrupt   *obs.Counter
	writeErrs *obs.Counter

	queue     chan saveReq
	writerWG  sync.WaitGroup
	closeOnce sync.Once
}

type saveReq struct {
	key     string
	stats   *sim.RunStats
	changes []api.AreaChange
	// flush, when non-nil, marks a barrier: the writer closes it once
	// every earlier save has reached disk.
	flush chan struct{}
}

// Fingerprint digests any comparable configuration value into a short
// stable string for Options.Fingerprint. %#v is deterministic for the
// plain nested structs sim.Config is made of.
func Fingerprint(v any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
	return hex.EncodeToString(h[:16])
}

// Open opens (or initialises) the store rooted at opt.Dir and starts
// the write-behind writer. The caller must Close it to flush pending
// saves.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 256
	}
	if err := os.MkdirAll(filepath.Join(opt.Dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := checkMeta(opt.Dir, opt.Fingerprint); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       opt.Dir,
		hits:      opt.Registry.Counter(MetricHits),
		misses:    opt.Registry.Counter(MetricMisses),
		writes:    opt.Registry.Counter(MetricWrites),
		corrupt:   opt.Registry.Counter(MetricCorrupt),
		writeErrs: opt.Registry.Counter(MetricWriteErrors),
		queue:     make(chan saveReq, opt.QueueDepth),
	}
	s.writerWG.Add(1)
	go s.writer()
	return s, nil
}

// checkMeta pins the directory to one base-config fingerprint: the
// first open records it, later opens must match.
func checkMeta(dir, fingerprint string) error {
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var meta storeMeta
		if derr := json.Unmarshal(data, &meta); derr != nil || meta.Schema != metaSchema {
			return fmt.Errorf("store: %s is not a %s file", path, metaSchema)
		}
		if meta.Fingerprint != "" && fingerprint != "" && meta.Fingerprint != fingerprint {
			return fmt.Errorf("store: %s was written under base-config fingerprint %s, this process runs %s — results would alias; use a fresh -store directory",
				dir, meta.Fingerprint, fingerprint)
		}
		return nil
	case os.IsNotExist(err):
		data, merr := json.Marshal(storeMeta{Schema: metaSchema, Fingerprint: fingerprint})
		if merr != nil {
			return merr
		}
		return writeFileAtomic(path, append(data, '\n'))
	default:
		return fmt.Errorf("store: %w", err)
	}
}

// objectPath maps a canonical cell key onto its file: keys contain
// '|' and other non-path characters, so the filename is the hex
// sha256 of the key with a two-character fan-out directory. Fsck
// re-derives this mapping to verify every object sits under the name
// its embedded key hashes to.
func objectPath(dir, key string) string {
	h := HashKey(key)
	return filepath.Join(dir, "objects", h[:2], h+".json")
}

// HashKey returns the filename stem a cell key is stored under.
func HashKey(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// Load reads the result stored under key. ok=false means not present
// — including present-but-corrupt, which is additionally counted on
// store_corrupt_total and left in place for fsck to report.
func (s *Store) Load(key string) (*sim.RunStats, []sim.AreaChange, bool) {
	data, err := os.ReadFile(objectPath(s.dir, key))
	if err != nil {
		s.misses.Inc()
		return nil, nil, false
	}
	obj, err := decodeObject(data, key)
	if err != nil {
		s.corrupt.Inc()
		s.misses.Inc()
		log.Printf("store: corrupt object for key %s: %v", key, err)
		return nil, nil, false
	}
	s.hits.Inc()
	return obj.Stats, api.SimAreaChanges(obj.AreaChanges), true
}

// decodeObject validates one object file against the key it should
// hold. Every failure mode — truncation, garbage, schema drift, a
// file renamed onto the wrong hash — lands here, never as a panic.
func decodeObject(data []byte, key string) (*api.StoredResult, error) {
	var obj api.StoredResult
	if err := json.Unmarshal(data, &obj); err != nil {
		return nil, err
	}
	if obj.Schema != api.StoreSchema {
		return nil, fmt.Errorf("schema %q, want %q", obj.Schema, api.StoreSchema)
	}
	if key != "" && obj.Key != key {
		return nil, fmt.Errorf("object holds key %q", obj.Key)
	}
	if obj.Stats == nil {
		return nil, errors.New("object has no stats")
	}
	return &obj, nil
}

// Save queues one result for durable write-behind storage. It blocks
// only when the writer is QueueDepth results behind. Safe to call
// concurrently; a Save after Close is dropped.
func (s *Store) Save(key string, stats *sim.RunStats, changes []sim.AreaChange) {
	defer func() {
		// The queue closes on Close; racing saves from still-draining
		// engine cells are dropped rather than panicking the cell.
		recover()
	}()
	s.queue <- saveReq{key: key, stats: stats, changes: api.AreaChangesOf(changes)}
}

// Put writes one result synchronously and durably; Save is this, off
// the caller's goroutine.
func (s *Store) Put(key string, stats *sim.RunStats, changes []sim.AreaChange) error {
	return s.put(saveReq{key: key, stats: stats, changes: api.AreaChangesOf(changes)})
}

func (s *Store) put(req saveReq) error {
	obj := api.StoredResult{Schema: api.StoreSchema, Key: req.key, Stats: req.stats, AreaChanges: req.changes}
	data, err := json.Marshal(obj)
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", req.key, err)
	}
	path := objectPath(s.dir, req.key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Inc()
	return nil
}

func (s *Store) writer() {
	defer s.writerWG.Done()
	for req := range s.queue {
		if req.flush != nil {
			close(req.flush)
			continue
		}
		if err := s.put(req); err != nil {
			s.writeErrs.Inc()
			log.Printf("store: write-behind save failed (result stays in memory, a restart re-simulates): %v", err)
		}
	}
}

// Flush blocks until every Save enqueued before the call has reached
// disk.
func (s *Store) Flush() {
	done := make(chan struct{})
	func() {
		defer func() { recover() }()
		s.queue <- saveReq{flush: done}
		<-done
	}()
}

// Close flushes pending saves and stops the writer. Idempotent.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.queue)
		s.writerWG.Wait()
	})
	return nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// writeFileAtomic is the crash-ordering primitive: the data is fully
// on disk (fsync) under a temp name before the rename makes it
// visible, and the directory entry itself is fsync'd, so a reader —
// in this process or after a SIGKILL and restart — sees the old
// state or the complete new one, never a prefix.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// FsckReport summarises one consistency walk over a store directory.
type FsckReport struct {
	Objects int      // decodable objects whose key re-hashes to their filename
	Corrupt []string // paths that failed decoding or the key check
}

// Fsck walks every CAS object under dir and verifies it decodes, is
// schema-tagged, and re-hashes to its filename — the integrity
// invariant behind `wpserved -store-fsck`. It never modifies the
// store. A missing objects directory is an empty, healthy store.
func Fsck(dir string) (*FsckReport, error) {
	rep := &FsckReport{}
	root := filepath.Join(dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) && path == root {
				return nil
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		obj, derr := decodeObject(data, "")
		if derr != nil {
			rep.Corrupt = append(rep.Corrupt, fmt.Sprintf("%s: %v", path, derr))
			return nil
		}
		want := HashKey(obj.Key) + ".json"
		if filepath.Base(path) != want {
			rep.Corrupt = append(rep.Corrupt, fmt.Sprintf("%s: key %q re-hashes to %s", path, obj.Key, want))
		} else {
			rep.Objects++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: fsck: %w", err)
	}
	sort.Strings(rep.Corrupt)
	return rep, nil
}
