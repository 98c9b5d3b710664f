package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pacer/internal/fleet"
)

// SnapshotVersion is the persisted-state format version. Restore
// refuses versions it does not understand, so a downgraded pacerd fails
// loudly instead of silently dropping triage history.
const SnapshotVersion = 1

// SnapshotFileName is the state file pacerd persists under -state-dir.
const SnapshotFileName = "pacerd-state.json"

// SnapshotFile is the versioned on-disk format: the full per-instance
// state — triage lists and the seq/epoch tracking the delta protocol
// depends on — so a restarted collector resumes exactly where it
// stopped, including accepting delta pushes whose base it snapshotted.
type SnapshotFile struct {
	Version       int                `json:"version"`
	SavedUnixNano int64              `json:"saved_unix_nano"`
	Instances     []InstanceSnapshot `json:"instances"`
}

// InstanceSnapshot is one instance's persisted state.
type InstanceSnapshot struct {
	Instance         string              `json:"instance"`
	Epoch            uint64              `json:"epoch,omitempty"`
	Seq              uint64              `json:"seq"`
	Dropped          uint64              `json:"dropped,omitempty"`
	LastSeenUnixNano int64               `json:"last_seen_unix_nano"`
	Races            []fleet.TriageEntry `json:"races"`
	Shadow           *fleet.ShadowGauges `json:"shadow,omitempty"`
}

// Snapshot captures the full state, deterministically ordered (sorted
// instances, ascending-key triage rows), so identical states persist to
// identical bytes.
func (s *State) Snapshot() *SnapshotFile {
	now := s.opts.Clock()
	snap := &SnapshotFile{Version: SnapshotVersion, SavedUnixNano: now.UnixNano()}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		s.sweepShardLocked(sh, now, true)
		for name, ent := range sh.instances {
			snap.Instances = append(snap.Instances, InstanceSnapshot{
				Instance:         name,
				Epoch:            ent.epoch,
				Seq:              ent.seq,
				Dropped:          ent.dropped,
				LastSeenUnixNano: ent.lastSeen.UnixNano(),
				Races:            fleet.SortedTriage(ent.entries),
				Shadow:           ent.shadow,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(snap.Instances, func(i, j int) bool {
		return snap.Instances[i].Instance < snap.Instances[j].Instance
	})
	return snap
}

// Restore replaces the state with snap's contents. It is meant for
// boot, before the pipeline starts accepting pushes.
func (s *State) Restore(snap *SnapshotFile) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("ingest: state snapshot version %d (this build reads %d)",
			snap.Version, SnapshotVersion)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.instances = make(map[string]*instEntry)
		sh.bytes = 0
		sh.mu.Unlock()
	}
	for _, in := range snap.Instances {
		if in.Instance == "" {
			return fmt.Errorf("ingest: state snapshot entry names no instance")
		}
		ent := &instEntry{
			name:     in.Instance,
			epoch:    in.Epoch,
			seq:      in.Seq,
			dropped:  in.Dropped,
			lastSeen: time.Unix(0, in.LastSeenUnixNano),
			entries:  make(map[fleet.TriageKey]fleet.TriageEntry, len(in.Races)),
			shadow:   in.Shadow,
		}
		for _, e := range in.Races {
			// Rows are held as a push holds them: a static kind (an
			// unknown kind is kept, and fails the merged view) and the
			// instance's own name shared.
			if k, ok := fleet.StaticKind(e.Kind); ok {
				e.Kind = k
			}
			ent.entries[e.Key()] = ent.share(e)
		}
		ent.cost = instCost(ent.name, ent.entries)
		sh := s.shardOf(in.Instance)
		sh.mu.Lock()
		if old := sh.instances[in.Instance]; old != nil {
			sh.bytes -= old.cost // a file naming an instance twice keeps the last
		}
		sh.instances[in.Instance] = ent
		sh.bytes += ent.cost
		sh.mu.Unlock()
	}
	return nil
}

// WriteSnapshotFile persists snap under dir atomically: the bytes land
// in a temp file first and rename makes them visible in one step, so a
// crash mid-write can never leave a torn state file — the previous
// snapshot survives intact.
func WriteSnapshotFile(dir string, snap *SnapshotFile) error {
	blob, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("ingest: encoding state snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, SnapshotFileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("ingest: creating state temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("ingest: writing state snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ingest: syncing state snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ingest: closing state snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, SnapshotFileName)); err != nil {
		return fmt.Errorf("ingest: publishing state snapshot: %w", err)
	}
	return nil
}

// ReadSnapshotFile loads the state file under dir. A missing file is
// not an error — it returns (nil, nil), the empty first boot.
func ReadSnapshotFile(dir string) (*SnapshotFile, error) {
	blob, err := os.ReadFile(filepath.Join(dir, SnapshotFileName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: reading state snapshot: %w", err)
	}
	var snap SnapshotFile
	if err := json.Unmarshal(blob, &snap); err != nil {
		return nil, fmt.Errorf("ingest: parsing state snapshot: %w", err)
	}
	return &snap, nil
}
