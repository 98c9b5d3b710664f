package detector

import "sync/atomic"

// State is the atomically published sampling state word of the Sharded
// contract: bit 0 is the sampling flag, the upper bits count transitions,
// so two equal Word loads bracketing another probe prove the flag held
// throughout. A front-end fetches a backend's State once and loads the
// word directly, so the probes behind its lock-free dismissals compile to
// plain atomic loads.
type State struct {
	w atomic.Uint64
}

// SetAlwaysOn publishes the constant always-sampling word (flag set, zero
// transitions) used by detectors that analyze every access.
func (s *State) SetAlwaysOn() { s.w.Store(1) }

// Publish mirrors the sampling flag into the word, bumping the transition
// count. Call from under the owner's exclusive lock.
func (s *State) Publish(sampling bool) {
	w := (s.w.Load()>>1 + 1) << 1
	if sampling {
		w |= 1
	}
	s.w.Store(w)
}

// Word returns the current state word.
func (s *State) Word() uint64 { return s.w.Load() }
