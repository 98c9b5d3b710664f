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

// StageDismissals returns how many accesses the dismissal chain dismissed,
// summed over every counter cell. Unlike Stats.FastPathReads it leaves out
// what the backend's locked path dismisses itself.
func (p *Detector) StageDismissals() uint64 {
	var n uint64
	for _, c := range append([]*opCell{p.spill}, *p.cells.Load()...) {
		n += c.reads.Load() + c.writes.Load()
	}
	return n
}

// StageNames returns the mounted dismissal chain's stage names, in order.
func (p *Detector) StageNames() []string {
	var names []string
	for _, st := range p.stages {
		names = append(names, st.Name)
	}
	return names
}

// TruncateChain keeps the first n stages of the mounted dismissal chain.
// Call it before the detector's first operation.
func (p *Detector) TruncateChain(n int) { p.stages = p.stages[:n] }
