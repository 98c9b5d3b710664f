package backends

import (
	"fmt"

	"pacer/internal/detector"
	"pacer/internal/event"
)

// Caps describes one registered backend's mount and capability surface,
// derived the same way the front-end derives it: construct the backend and
// ask it. Because it is computed from the live registry, it cannot drift
// from the code — the docs/backends.md matrix is tested against it, and
// `racereplay backends` prints it.
type Caps struct {
	// Name is the registry name.
	Name string
	// Sharded reports the concurrent mount (detector.Sharded): false means
	// the front-end drives the backend fully serialized.
	Sharded bool
	// Sampler reports sampling periods (detector.Sampler); always-on
	// backends analyze every access.
	Sampler bool
	// Stages names the backend's lock-free access dismissals, in the order
	// the front-end tries them (detector.Sharded's Stages); empty for a
	// serialized mount.
	Stages []string
	// SyncNoOp reports the lock-free sync dismissal: the backend proves a
	// redundant acquire or release a no-op from published version epochs
	// (detector.Sharded's SyncNoOp), so the front-end skips the epoch lock.
	SyncNoOp bool
}

// Probe constructs the named backend and reports its capability surface.
func Probe(name string) (Caps, error) {
	d, err := New(name, nil, Config{})
	if err != nil {
		return Caps{}, err
	}
	c := Caps{Name: name}
	_, c.Sampler = d.(detector.Sampler)
	sh, ok := d.(detector.Sharded)
	if !ok {
		return c, nil
	}
	c.Sharded = true
	for _, st := range sh.Stages() {
		c.Stages = append(c.Stages, st.Name)
	}
	// The front-end asks the backend about each operation; a thread
	// acquiring the lock it released last is the simplest no-op.
	d.Release(0, 0)
	c.SyncNoOp = sh.SyncNoOp(event.Event{Kind: event.Acquire})
	return c, nil
}

// All probes every registered backend, in Names() order.
func All() []Caps {
	names := Names()
	out := make([]Caps, 0, len(names))
	for _, name := range names {
		c, err := Probe(name)
		if err != nil {
			// Names() and New share one fixed table, so this cannot happen.
			panic(fmt.Sprintf("backends: probing %q: %v", name, err))
		}
		out = append(out, c)
	}
	return out
}

// Mount returns the mount column of the capability matrix.
func (c Caps) Mount() string {
	if c.Sharded {
		return "sharded"
	}
	return "serialized"
}
