package pacer

// SyncDismissals returns how many synchronization operations the front-end
// dismissed lock-free (trySyncNoOp), summed over every counter cell. Tests
// use it to tell a dismissal from a locked-path operation, which Stats
// counts the same way.
func (p *Detector) SyncDismissals() uint64 {
	var n uint64
	for _, c := range append([]*opCell{p.spill}, *p.cells.Load()...) {
		n += c.joins.Load() + c.copies.Load() + c.volCopies.Load()
	}
	return n
}
