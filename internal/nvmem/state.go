// Snapshot support: the device's complete durable and model state as a
// serializable value. Maps are flattened to address-sorted slices so gob
// encoding is deterministic, and the media-fault RNG position rides along —
// the fault stream is entangled with the access sequence, so a resumed run
// must continue drawing from the exact point the original stopped.

package nvmem

import (
	"fmt"

	"steins/internal/rng"
)

// LastWriteState is the tear candidate for the next crash boundary.
type LastWriteState struct {
	Valid bool
	Addr  uint64
	Prev  Line
	Next  Line
}

// EvidenceState is one line's media-fault evidence ledger entry.
type EvidenceState struct {
	Addr          uint64
	Corrected     uint64
	Uncorrectable uint64
	Torn          bool
}

// State is the full serializable device image. The configuration is not
// captured: the restoring side rebuilds the device from the same Config and
// the snapshot header's knobs.
//
// The per-line images that grow with the device are stored as flat
// columns, not as one struct per line: gob encodes a []byte or []uint64
// in one bulk copy, but walks a [LineSize]byte array element by element
// through reflection, which made checkpoints of a populated device cost
// most of their time in the encoder. Column i of a group describes the
// line at the group's i-th address; byte columns hold LineSize bytes per
// address.
type State struct {
	// LineAddrs are the non-zero lines, ascending; LineData holds their
	// contents.
	LineAddrs []uint64
	LineData  []byte
	// WearAddrs are the lines with a non-zero write count, ascending;
	// WearCounts holds the counts.
	WearAddrs  []uint64
	WearCounts []uint64
	Queue      []uint64 // pending write completions, FIFO by completion
	Banks      []uint64 // per-bank next-free times
	Stats      Stats
	// FaultRNG is the media-fault stream position; FaultRNGValid
	// distinguishes "model off" from a zero state.
	FaultRNGValid bool
	FaultRNG      [4]uint64
	// StuckAddrs are the lines with a stuck-cell overlay, ascending;
	// StuckMask and StuckVal hold each overlay's mask and stuck values.
	StuckAddrs []uint64
	StuckMask  []byte
	StuckVal   []byte
	LastWrite  LastWriteState
	// Evidence is the per-line media-fault ledger, sorted by address.
	Evidence []EvidenceState
}

// StateError reports a captured state whose columns do not describe an
// image: a column whose length disagrees with its address column, or an
// address that is unaligned, beyond capacity or out of order. Restore
// returns it before mutating anything, so a malformed checkpoint fails
// with an error instead of a panic or a half-restored device.
type StateError struct {
	Column string // the offending column, e.g. "LineData"
	Reason string
}

func (e *StateError) Error() string { return "state column " + e.Column + ": " + e.Reason }

// CheckColumn reports a *StateError when a column holds n entries where
// its address column implies want.
func CheckColumn(column string, n, want int) error {
	if n == want {
		return nil
	}
	return &StateError{Column: column, Reason: fmt.Sprintf("%d entries, want %d", n, want)}
}

// CheckAddrs reports a *StateError unless every address of the column is
// line-aligned, below capacity, and above its predecessor (State captures
// in ascending order).
func CheckAddrs(column string, addrs []uint64, capacity uint64) error {
	for i, a := range addrs {
		if a%LineSize != 0 || a >= capacity {
			return &StateError{Column: column,
				Reason: fmt.Sprintf("entry %d: address %#x unaligned or beyond capacity %#x", i, a, capacity)}
		}
		if i > 0 && a <= addrs[i-1] {
			return &StateError{Column: column,
				Reason: fmt.Sprintf("entry %d: address %#x not above %#x", i, a, addrs[i-1])}
		}
	}
	return nil
}

// validate checks that the state's columns fit a device built from cfg:
// every column as long as its address column implies, every address
// valid. It returns a *StateError for the first violation.
func (st *State) validate(cfg Config) error {
	capacity := cfg.CapacityBytes
	evid := make([]uint64, len(st.Evidence))
	for i, ev := range st.Evidence {
		evid[i] = ev.Addr
	}
	for _, err := range []error{
		CheckAddrs("LineAddrs", st.LineAddrs, capacity),
		CheckColumn("LineData", len(st.LineData), len(st.LineAddrs)*LineSize),
		CheckAddrs("WearAddrs", st.WearAddrs, capacity),
		CheckColumn("WearCounts", len(st.WearCounts), len(st.WearAddrs)),
		CheckAddrs("StuckAddrs", st.StuckAddrs, capacity),
		CheckColumn("StuckMask", len(st.StuckMask), len(st.StuckAddrs)*LineSize),
		CheckColumn("StuckVal", len(st.StuckVal), len(st.StuckAddrs)*LineSize),
		CheckAddrs("Evidence", evid, capacity),
		CheckColumn("Banks", len(st.Banks), cfg.WriteBanks),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// lineAt returns the i-th LineSize-byte entry of a byte column.
func lineAt(col []byte, i int) Line {
	return Line(col[i*LineSize : (i+1)*LineSize])
}

// State captures the device. The observer callback is not part of the
// state; harnesses re-register theirs after Restore.
func (d *Device) State() State {
	st := State{
		Queue: append([]uint64(nil), d.queue...),
		Banks: append([]uint64(nil), d.banks...),
		Stats: d.stats,
		LastWrite: LastWriteState{
			Valid: d.last.valid, Addr: d.last.addr, Prev: d.last.prev, Next: d.last.next,
		},
		LineAddrs: make([]uint64, 0, d.populated),
		LineData:  make([]byte, 0, d.populated*LineSize),
	}
	// Arena iteration ascends by address, matching the sorted order the
	// map-backed implementation produced; zero slots equal absent entries.
	d.lines.ForEach(func(idx uint64, l *Line) {
		if *l != (Line{}) {
			st.LineAddrs = append(st.LineAddrs, idx*LineSize)
			st.LineData = append(st.LineData, l[:]...)
		}
	})
	d.wear.ForEach(func(idx uint64, n *uint64) {
		if *n != 0 {
			st.WearAddrs = append(st.WearAddrs, idx*LineSize)
			st.WearCounts = append(st.WearCounts, *n)
		}
	})
	d.stuck.ForEach(func(idx uint64, s *stuckLine) {
		if s.mask != (Line{}) {
			st.StuckAddrs = append(st.StuckAddrs, idx*LineSize)
			st.StuckMask = append(st.StuckMask, s.mask[:]...)
			st.StuckVal = append(st.StuckVal, s.val[:]...)
		}
	})
	d.evid.ForEach(func(idx uint64, ev *lineEvidence) {
		if *ev != (lineEvidence{}) {
			st.Evidence = append(st.Evidence, EvidenceState{Addr: idx * LineSize,
				Corrected: ev.corrected, Uncorrectable: ev.uncorrectable, Torn: ev.torn})
		}
	})
	if d.frng != nil {
		st.FaultRNGValid = true
		st.FaultRNG = d.frng.State()
	}
	return st
}

// Restore overwrites the device's contents, wear, queue, statistics and
// fault-model state from a captured State. The device must have been built
// from the same Config (bank count in particular); the observer callback is
// left as-is. A state whose columns do not fit the device (a length that
// disagrees with its address column, a bad address, a different bank
// count) is rejected with a *StateError and leaves the device untouched.
func (d *Device) Restore(st State) error {
	if err := st.validate(d.cfg); err != nil {
		return err
	}
	d.lines.Reset()
	d.populated = 0
	for i, addr := range st.LineAddrs {
		if l := lineAt(st.LineData, i); l != (Line{}) {
			*d.lines.Ptr(addr / LineSize) = l
			d.populated++
		}
	}
	d.wear.Reset()
	for i, addr := range st.WearAddrs {
		*d.wear.Ptr(addr / LineSize) = st.WearCounts[i]
	}
	d.queue = append(d.queue[:0], st.Queue...)
	d.banks = append(d.banks[:0], st.Banks...)
	d.stats = st.Stats
	d.stuck.Reset()
	d.stuckN = 0
	for i, addr := range st.StuckAddrs {
		if mask := lineAt(st.StuckMask, i); mask != (Line{}) {
			*d.stuck.Ptr(addr / LineSize) = stuckLine{mask: mask, val: lineAt(st.StuckVal, i)}
			d.stuckN++
		}
	}
	d.evid.Reset()
	d.tornN = 0
	for _, ev := range st.Evidence {
		*d.evid.Ptr(ev.Addr / LineSize) = lineEvidence{
			corrected: ev.Corrected, uncorrectable: ev.Uncorrectable, torn: ev.Torn}
		if ev.Torn {
			d.tornN++
		}
	}
	if st.FaultRNGValid {
		if d.frng == nil {
			d.frng = rng.New(d.cfg.Faults.Seed)
		}
		d.frng.Restore(st.FaultRNG)
	} else {
		d.frng = nil
	}
	d.last = lastWrite{valid: st.LastWrite.Valid, addr: st.LastWrite.Addr,
		prev: st.LastWrite.Prev, next: st.LastWrite.Next}
	return nil
}
