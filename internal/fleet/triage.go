package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
)

// TriageEntry is one row of the wire triage-list schema — the flat JSON
// shape pacer.Aggregator.MarshalJSON exports and ImportJSON consumes
// (see docs/fleet.md). The fleet package materializes pushed lists into
// maps of these so the production ingest tier can apply delta pushes as
// key-wise upserts and re-export an instance's cumulative list at any
// time; pacer.Aggregator itself never sees deltas.
type TriageEntry struct {
	Var           uint32 `json:"var"`
	Kind          string `json:"kind"`
	FirstSite     uint32 `json:"first_site"`
	SecondSite    uint32 `json:"second_site"`
	FirstThread   uint32 `json:"first_thread"`
	SecondThread  uint32 `json:"second_thread"`
	Count         int    `json:"count"`
	Instances     int    `json:"instances"`
	FirstInstance string `json:"first_instance"`
}

// TriageKey identifies a distinct race the same way the aggregator does:
// variable, unordered site pair, and canonicalized access-kind pair.
type TriageKey struct {
	Var  uint32
	Kind string
	A, B uint32
}

// Key canonicalizes e to its distinct-race key, mirroring the
// aggregator's keyOf: sites sort into (A <= B) order with the kind pair
// swapping along (a write-read observed as s2-then-s1 is the read-write
// on (s1, s2)), and the two temporal orders of a single-site mixed race
// collapse onto read-write. Two instances exporting the mirrored
// orderings of one static race therefore produce the same key, which is
// what lets a delta upsert from one instance land on the entry a full
// snapshot created earlier.
func (e TriageEntry) Key() TriageKey {
	a, b, k := e.FirstSite, e.SecondSite, e.Kind
	if a > b {
		a, b = b, a
		switch k {
		case kindWriteRead:
			k = kindReadWrite
		case kindReadWrite:
			k = kindWriteRead
		}
	}
	if a == b && k == kindWriteRead {
		k = kindReadWrite
	}
	return TriageKey{Var: e.Var, Kind: k, A: a, B: b}
}

// The race kinds of the wire schema.
const (
	kindWriteWrite = "write-write"
	kindWriteRead  = "write-read"
	kindReadWrite  = "read-write"
)

// StaticKind returns the package's constant spelling of the race kind k,
// or ok=false when k is not one. A row whose Kind is replaced by it holds
// a static string instead of a heap copy of its own, and so does its
// Key.
func StaticKind(k string) (static string, ok bool) {
	switch k {
	case kindWriteWrite:
		return kindWriteWrite, true
	case kindWriteRead:
		return kindWriteRead, true
	case kindReadWrite:
		return kindReadWrite, true
	}
	return "", false
}

// ParseTriage parses a wire triage list (full or delta — the schema is
// identical, a delta is just a shorter list) into a map keyed by
// distinct race, validating each row the same way pacer.ImportJSON does.
// Duplicate keys — impossible from MarshalJSON but possible in a
// hand-edited list — fold exactly as ImportJSON folds them, so a
// materialize-then-remarshal round trip merges to the same aggregator
// state as importing the raw blob.
//
// The list is read by the same row decoder as DecodePush's (decode.go),
// accepting and rejecting what json.Unmarshal into a []TriageEntry does.
func ParseTriage(data []byte) (map[TriageKey]TriageEntry, error) {
	s := scanner{data: data}
	out := make(map[TriageKey]TriageEntry)
	bad, err := s.triage(out, "", 1)
	if err == nil {
		if s.ws(); s.pos < len(data) {
			err = s.invalid(data[s.pos], "after top-level value")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: parsing triage list: %w", err)
	}
	if bad != nil {
		return nil, bad
	}
	return out, nil
}

// foldRow validates the decoded triage row e, the i-th of its list, and
// folds it into out by distinct race: duplicates add their counts, and a
// first reporter the two rows share is counted once.
func foldRow(out map[TriageKey]TriageEntry, i int, e TriageEntry) error {
	kind, ok := StaticKind(e.Kind)
	if !ok {
		return fmt.Errorf("fleet: triage entry %d: unknown race kind %q", i, e.Kind)
	}
	e.Kind = kind
	if e.Count < 1 || e.Instances < 1 || e.Instances > e.Count {
		return fmt.Errorf("fleet: triage entry %d has implausible count %d / instances %d",
			i, e.Count, e.Instances)
	}
	k := e.Key()
	dst, ok := out[k]
	if !ok {
		out[k] = e
		return nil
	}
	dst.Count += e.Count
	dst.Instances += e.Instances
	if dst.FirstInstance == e.FirstInstance {
		dst.Instances-- // the shared first reporter was already counted
	}
	out[k] = dst
	return nil
}

// MarshalTriage renders a materialized triage map back to the wire list
// schema in a deterministic order (ascending by key), so snapshots and
// delta pushes built from the same state are byte-stable.
func MarshalTriage(entries map[TriageKey]TriageEntry) ([]byte, error) {
	return json.Marshal(SortedTriage(entries))
}

// SortedTriage flattens a materialized triage map into a deterministic
// ascending-key slice — the canonical persistence and delta-wire order.
func SortedTriage(entries map[TriageKey]TriageEntry) []TriageEntry {
	keys := make([]TriageKey, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki.Var != kj.Var {
			return ki.Var < kj.Var
		}
		if ki.A != kj.A {
			return ki.A < kj.A
		}
		if ki.B != kj.B {
			return ki.B < kj.B
		}
		return ki.Kind < kj.Kind
	})
	out := make([]TriageEntry, len(keys))
	for i, k := range keys {
		out[i] = entries[k]
	}
	return out
}

// DiffTriage returns the entries of cur that are new or changed relative
// to base — the payload of a delta push. Triage lists only grow (counts
// are cumulative and entries are never retracted), so an upsert list is
// a complete delta; there is no removal case.
func DiffTriage(cur, base map[TriageKey]TriageEntry) map[TriageKey]TriageEntry {
	changed := make(map[TriageKey]TriageEntry)
	for k, e := range cur {
		if old, ok := base[k]; !ok || old != e {
			changed[k] = e
		}
	}
	return changed
}
