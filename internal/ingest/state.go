package ingest

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pacer"
	"pacer/internal/fleet"
)

// StateOptions configure the sharded collector state.
type StateOptions struct {
	// Shards is the shard count, rounded up to a power of two. Default
	// 16. Pushes to instances on different shards never contend on one
	// mutex.
	Shards int
	// MaxBytes bounds the state's total (approximate, accounted) memory,
	// split evenly across shards. A shard over its budget evicts its
	// least-recently-seen instances — triage state and seq/epoch
	// tracking together, so a churning fleet (fresh instance names per
	// pod) cannot grow any map unboundedly — and counts the evictions.
	// <= 0 means 256 MiB.
	MaxBytes int64
	// InstanceTTL, when positive, expires instances whose last push is
	// older than this. Expiry is lazy: reads sweep fully; pushes sweep a
	// shard at most every TTL/4 so the hot path stays O(1) amortized.
	InstanceTTL time.Duration
	// Clock supplies timestamps; tests inject a fake. Default time.Now.
	Clock func() time.Time
}

// ApplyResult is the outcome of applying one push to the state.
type ApplyResult int

const (
	// ApplyMerged: the push updated the instance's state.
	ApplyMerged ApplyResult = iota
	// ApplyStale: the push was a duplicate or superseded; acknowledged
	// without effect so the reporter stops re-sending.
	ApplyStale
	// ApplyResync: a delta whose base this state does not hold; the
	// reporter must fall back to a full cumulative snapshot.
	ApplyResync
)

// instEntry is everything the collector remembers about one instance.
// Eviction and TTL expiry always remove the whole entry — the triage
// state and the seq/epoch tracking live and die together, so no
// tracking map can outgrow the triage state it serves.
type instEntry struct {
	// name is the instance's name, the one copy of it the state keeps:
	// the shard map's key and every held row the instance itself first
	// reported (FirstInstance) share its bytes.
	name     string
	epoch    uint64
	seq      uint64
	dropped  uint64
	lastSeen time.Time
	entries  map[fleet.TriageKey]fleet.TriageEntry
	cost     int64
	shadow   *fleet.ShadowGauges
}

type stateShard struct {
	mu        sync.Mutex
	instances map[string]*instEntry
	bytes     int64
	lastSweep time.Time
}

// State is the sharded, bounded, restorable collector state behind the
// ingest pipeline's merge stage. Instance names hash onto shards, so
// concurrent pushes from different instances take different locks; the
// merged fleet view locks one shard at a time and is deterministic
// (sorted instance order) for a given set of snapshots.
type State struct {
	opts      StateOptions
	shardMask uint32
	shards    []stateShard

	evicted atomic.Uint64 // instances evicted for the memory bound
	expired atomic.Uint64 // instances expired past InstanceTTL
}

// NewState returns an empty sharded state.
func NewState(opts StateOptions) *State {
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 256 << 20
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	s := &State{opts: opts, shardMask: uint32(pow - 1), shards: make([]stateShard, pow)}
	for i := range s.shards {
		s.shards[i].instances = make(map[string]*instEntry)
	}
	return s
}

// shardOf hashes an instance name onto its shard (FNV-1a).
func (s *State) shardOf(instance string) *stateShard {
	h := uint32(2166136261)
	for i := 0; i < len(instance); i++ {
		h ^= uint32(instance[i])
		h *= 16777619
	}
	return &s.shards[h&s.shardMask]
}

func (s *State) perShardBudget() int64 {
	return s.opts.MaxBytes / int64(len(s.shards))
}

// instCost approximates an instance entry's memory footprint: map and
// struct overheads plus the variable-length strings. The accounting
// backs the eviction bound, so it errs on the generous side (it counts
// every string at its length, shared or not). A cumulative push and
// Restore compute it whole; a delta push keeps ent.cost equal to it
// incrementally, taking each replaced row's entryCost off and adding its
// successor's, so a delta costs in proportion to the rows it carries.
func instCost(name string, entries map[fleet.TriageKey]fleet.TriageEntry) int64 {
	c := int64(160 + len(name))
	for k, e := range entries {
		c += entryCost(k, e)
	}
	return c
}

// entryCost is one held row's share of instCost.
func entryCost(k fleet.TriageKey, e fleet.TriageEntry) int64 {
	return int64(112 + len(k.Kind) + len(e.Kind) + len(e.FirstInstance))
}

// share points e at the entry's copy of the instance name when the
// instance itself reported e first, so the held row owns no copy.
func (ent *instEntry) share(e fleet.TriageEntry) fleet.TriageEntry {
	if e.FirstInstance == ent.name {
		e.FirstInstance = ent.name
	}
	return e
}

// Evicted counts instances evicted to hold the memory bound.
func (s *State) Evicted() uint64 { return s.evicted.Load() }

// Expired counts instances expired past InstanceTTL.
func (s *State) Expired() uint64 { return s.expired.Load() }

// Bytes reports the accounted memory across all shards.
func (s *State) Bytes() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// Instances reports the live instance count across all shards.
func (s *State) Instances() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.instances)
		sh.mu.Unlock()
	}
	return n
}

// Apply merges one decoded push into the state. entries is the push's
// materialized triage payload (a full list, or a delta's changed rows).
func (s *State) Apply(p *fleet.Push, entries map[fleet.TriageKey]fleet.TriageEntry) ApplyResult {
	now := s.opts.Clock()
	sh := s.shardOf(p.Instance)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.sweepShardLocked(sh, now, false)

	ent := sh.instances[p.Instance]
	if p.BaseSeq != 0 {
		// Delta push: applies only on top of exactly the base we hold.
		switch {
		case ent == nil:
			return ApplyResync
		case p.Epoch == ent.epoch && p.Seq <= ent.seq:
			ent.lastSeen = now
			return ApplyStale // a retry of a delta already absorbed
		case p.Epoch != ent.epoch || p.BaseSeq != ent.seq:
			return ApplyResync
		}
		// The materialized delta rows carry absolute values, so
		// upserting them is the whole merge.
		var cost int64
		for k, e := range entries {
			if old, ok := ent.entries[k]; ok {
				cost -= entryCost(k, old)
			}
			e = ent.share(e)
			ent.entries[k] = e
			cost += entryCost(k, e)
		}
		ent.cost += cost
		sh.bytes += cost
	} else {
		// Full snapshot: replaces the instance's previous state.
		if ent != nil && p.Epoch == ent.epoch && p.Seq <= ent.seq {
			// Same process: a retry of something already absorbed, or an
			// out-of-order delivery superseded by a newer snapshot. A
			// different epoch is a restarted process whose seq numbering
			// started over — fresh state, never stale.
			ent.lastSeen = now
			return ApplyStale
		}
		if ent == nil {
			ent = &instEntry{name: p.Instance}
			sh.instances[p.Instance] = ent
		}
		for k, e := range entries {
			if e.FirstInstance == ent.name {
				e.FirstInstance = ent.name
				entries[k] = e
			}
		}
		sh.bytes -= ent.cost
		ent.entries = entries
		ent.cost = instCost(ent.name, entries)
		sh.bytes += ent.cost
	}
	ent.epoch = p.Epoch
	ent.seq = p.Seq
	ent.dropped = p.Dropped
	ent.lastSeen = now
	ent.shadow = p.Shadow
	s.evictOverLocked(sh, p.Instance)
	return ApplyMerged
}

// sweepShardLocked expires instances past InstanceTTL. Reads force a
// full sweep; pushes sweep at most every TTL/4, so steady-state push
// cost stays independent of shard population.
func (s *State) sweepShardLocked(sh *stateShard, now time.Time, force bool) {
	ttl := s.opts.InstanceTTL
	if ttl <= 0 {
		return
	}
	if !force && now.Sub(sh.lastSweep) < ttl/4 {
		return
	}
	sh.lastSweep = now
	cutoff := now.Add(-ttl)
	for name, ent := range sh.instances {
		if ent.lastSeen.Before(cutoff) {
			sh.bytes -= ent.cost
			delete(sh.instances, name)
			s.expired.Add(1)
		}
	}
}

// evictOverLocked enforces the shard's memory budget by evicting
// least-recently-seen instances — never the one just written, so a push
// can always land. Each eviction removes the instance's entire entry:
// triage state, seq/epoch tracking, and gauges together.
func (s *State) evictOverLocked(sh *stateShard, keep string) {
	budget := s.perShardBudget()
	for sh.bytes > budget && len(sh.instances) > 1 {
		var oldest string
		var oldestSeen time.Time
		for name, ent := range sh.instances {
			if name == keep {
				continue
			}
			if oldest == "" || ent.lastSeen.Before(oldestSeen) {
				oldest, oldestSeen = name, ent.lastSeen
			}
		}
		if oldest == "" {
			return
		}
		sh.bytes -= sh.instances[oldest].cost
		delete(sh.instances, oldest)
		s.evicted.Add(1)
	}
}

// Merged reconstructs every instance's triage list and merges them, in
// sorted instance order, into one fleet-wide aggregator, so the view —
// including which instance gets first-seen attribution for a race
// several instances reported — is deterministic for a given set of
// snapshots.
func (s *State) Merged() (*pacer.Aggregator, error) {
	now := s.opts.Clock()
	type inst struct {
		name string
		blob []byte
	}
	var all []inst
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		s.sweepShardLocked(sh, now, true)
		for name, ent := range sh.instances {
			blob, err := fleet.MarshalTriage(ent.entries)
			if err != nil {
				sh.mu.Unlock()
				return nil, fmt.Errorf("ingest: exporting %s: %w", name, err)
			}
			all = append(all, inst{name, blob})
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	agg := pacer.NewAggregator()
	for _, in := range all {
		if err := agg.ImportJSON(in.blob); err != nil {
			// Entries are validated at decode time, so this means
			// collector-side corruption; surface it rather than serve a
			// partial fleet view.
			return nil, fmt.Errorf("ingest: snapshot from %s: %w", in.name, err)
		}
	}
	return agg, nil
}

// InstanceRow is one instance's envelope bookkeeping for /metrics.
type InstanceRow struct {
	Name     string
	Seq      uint64
	Dropped  uint64
	LastSeen time.Time
	Shadow   *fleet.ShadowGauges
}

// Rows returns per-instance metric rows, sorted by name.
func (s *State) Rows() []InstanceRow {
	now := s.opts.Clock()
	var rows []InstanceRow
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		s.sweepShardLocked(sh, now, true)
		for name, ent := range sh.instances {
			rows = append(rows, InstanceRow{
				Name: name, Seq: ent.seq, Dropped: ent.dropped,
				LastSeen: ent.lastSeen, Shadow: ent.shadow,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
