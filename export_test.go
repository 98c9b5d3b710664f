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

// CellTableCap returns the capacity of the counter-cell table's backing
// array; a change means growLocked allocated a new one.
func (p *Detector) CellTableCap() int { return cap(*p.cells.Load()) }
