// Package snapshot provides versioned, deterministic checkpoint/restore of
// a complete simulation: trace generator position, per-scheme metadata
// caches and dirty state, integrity-tree contents, ADR region, the NVM
// backing store including its media-fault RNG stream and stuck-cell
// overlays, controller clocks, and metrics state. A run restored from a
// snapshot and driven to completion produces byte-identical metrics JSON
// to the uninterrupted run, at any worker count and under any fault seed.
//
// On-disk format: an 8-byte magic, a little-endian uint32 format version
// (versioned per payload kind), a little-endian uint32 payload kind, a
// little-endian uint64 payload length, a little-endian uint32 IEEE CRC-32
// of the payload, then the gob-encoded RunState. Every map in the
// captured state is flattened to an address-sorted slice before encoding,
// so identical states produce identical bytes.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sim"
	"steins/internal/trace"
)

// magic identifies a snapshot file.
var magic = [8]byte{'S', 'T', 'E', 'I', 'N', 'S', 'N', 'P'}

// Payload kinds: the envelope carries which state family it wraps, so a
// crashfuzz campaign file cannot be silently resumed as a simulation run.
const (
	// KindRun is a RunState (a paused simulation).
	KindRun uint32 = 1
	// KindCampaign is a crashfuzz campaign (internal/crashfuzz owns the
	// payload encoding; the envelope is shared).
	KindCampaign uint32 = 2
	// KindAdversarial is an adversarial-campaign checkpoint
	// (internal/campaign owns the payload encoding).
	KindAdversarial uint32 = 3
	// KindRepro is a self-contained campaign repro artifact: one failing
	// case's scheme, seed and event schedule (internal/campaign owns the
	// payload encoding).
	KindRepro uint32 = 4
	// KindServer is a serving-layer checkpoint: every tenant's placement
	// groups and their channel controllers (see server.go).
	KindServer uint32 = 5
)

// versions holds each payload kind's current format version. A kind's
// version moves whenever its payload encoding changes, and readers reject
// any other version with ErrVersion: gob silently drops fields it does not
// know, so an old payload decoded into the new structs would otherwise
// "restore" an empty device. Version 2 of the run, campaign and server
// kinds stores the controller's tags and the device's per-line images as
// flat columns (see nvmem.State); the adversarial and repro kinds embed
// no controller state and are still at version 1.
var versions = map[uint32]uint32{
	KindRun:         2,
	KindCampaign:    2,
	KindAdversarial: 1,
	KindRepro:       1,
	KindServer:      2,
}

// Version returns the current format version of a payload kind, or 0 for
// an unknown kind.
func Version(kind uint32) uint32 { return versions[kind] }

// headerLen is the fixed envelope prefix: magic + version + kind + length
// + CRC.
const headerLen = 8 + 4 + 4 + 8 + 4

// Structured decode failures. Every error returned by Read wraps exactly
// one of these, so callers can switch on errors.Is without string matching.
var (
	// ErrTruncated marks a file shorter than its envelope declares.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrBadMagic marks a file that is not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum marks payload corruption caught by the CRC.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt marks a payload that passed the CRC but failed to decode
	// (or decoded into an inconsistent state).
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// RunHeader records the run configuration: everything needed to rebuild
// the engine and trace generator in a fresh process. Only scalar knobs are
// stored — the crypto primitives and fault model inside memctrl.Config are
// reconstructed from defaults plus the Faults/ECCDisable fields, so a run
// configured through an arbitrary Options.Configure closure beyond those
// knobs cannot be captured here.
type RunHeader struct {
	Workload string // trace.Profile name (trace.ByName)
	Scheme   string // scheme display name (sim.SchemeByName)

	TotalOps  int // measured ops (Options.Ops)
	WarmupOps int
	Seed      uint64
	DataBytes uint64 // 0: profile footprint times two

	MetaCacheBytes int

	// Sharded-engine shape; Channels <= 1 means the single engine.
	Channels            int
	Interleave          trace.Interleave
	EpochOps            int
	KeepCachePerChannel bool

	// Media-fault model and ECC gate, as passed to memctrl.Config.NVM.
	Faults     nvmem.FaultConfig
	ECCDisable bool

	// Metrics collection options; HasMetrics false means no collector.
	HasMetrics bool
	Metrics    metrics.Options
}

// Options rebuilds the engine options the header describes.
func (h RunHeader) Options() (sim.Options, sim.ShardOptions) {
	faults, eccDisable := h.Faults, h.ECCDisable
	opt := sim.Options{
		Ops:            h.TotalOps,
		WarmupOps:      h.WarmupOps,
		Seed:           h.Seed,
		DataBytes:      h.DataBytes,
		MetaCacheBytes: h.MetaCacheBytes,
		Configure: func(cfg *memctrl.Config) {
			cfg.NVM.Faults = faults
			cfg.NVM.ECC.Disable = eccDisable
		},
	}
	if h.HasMetrics {
		m := h.Metrics
		opt.Metrics = &m
	}
	so := sim.ShardOptions{
		Channels:            h.Channels,
		Interleave:          h.Interleave,
		EpochOps:            h.EpochOps,
		KeepCachePerChannel: h.KeepCachePerChannel,
	}
	return opt, so
}

// RunState is the complete serialized image of a paused run: the
// configuration, the trace generator position, and exactly one engine
// state (gob omits the nil pointer).
type RunState struct {
	Header  RunHeader
	Trace   trace.GeneratorState
	Single  *sim.SingleState
	Sharded *sim.ShardedState
}

// CaptureSingle snapshots a single-controller run. The engine must be at a
// retired-op boundary (DriveN returned with no eviction in flight).
func CaptureSingle(h RunHeader, g *trace.Generator, e *sim.Single) (*RunState, error) {
	es, err := e.State()
	if err != nil {
		return nil, err
	}
	return &RunState{Header: h, Trace: g.State(), Single: es}, nil
}

// CaptureSharded snapshots a sharded run. The engine must be at an epoch
// barrier (DriveStreamN returned).
func CaptureSharded(h RunHeader, g *trace.Generator, e *sim.Sharded) (*RunState, error) {
	es, err := e.State()
	if err != nil {
		return nil, err
	}
	return &RunState{Header: h, Trace: g.State(), Sharded: es}, nil
}

// Resumed is a run rebuilt from a snapshot, ready to drive to completion.
// Exactly one of Single/Sharded is non-nil, matching the captured engine.
type Resumed struct {
	Profile trace.Profile
	Scheme  sim.Scheme
	Gen     *trace.Generator
	Single  *sim.Single
	Sharded *sim.Sharded
}

// Driven returns how many source ops the captured run had already driven.
func (r *Resumed) Driven() uint64 {
	if r.Single != nil {
		return r.Single.Driven()
	}
	return r.Sharded.Driven()
}

// Resume rebuilds the run the state describes: the profile and scheme are
// resolved by name, the engine reconstructed from the header knobs, and
// every layer restored. Failures wrap ErrCorrupt — the envelope was intact
// but the payload does not describe a loadable run.
func (st *RunState) Resume() (*Resumed, error) {
	h := st.Header
	prof, ok := trace.ByName(h.Workload)
	if !ok {
		return nil, fmt.Errorf("%w: unknown workload %q", ErrCorrupt, h.Workload)
	}
	s, ok := sim.SchemeByName(h.Scheme)
	if !ok {
		return nil, fmt.Errorf("%w: unknown scheme %q", ErrCorrupt, h.Scheme)
	}
	opt, so := h.Options()
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	g.Restore(st.Trace)
	r := &Resumed{Profile: prof, Scheme: s, Gen: g}
	switch {
	case st.Single != nil && st.Sharded == nil:
		e := sim.NewSingle(prof, s, opt)
		if err := e.Restore(st.Single); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		r.Single = e
	case st.Sharded != nil && st.Single == nil:
		e := sim.NewSharded(prof, s, opt, so)
		if err := e.Restore(st.Sharded); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		r.Sharded = e
	default:
		return nil, fmt.Errorf("%w: state carries %d engines, want exactly 1", ErrCorrupt,
			btoi(st.Single != nil)+btoi(st.Sharded != nil))
	}
	return r, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteEnvelope wraps an already-encoded payload of the given kind in the
// versioned, checksummed envelope. Other packages (crashfuzz) reuse it for
// their own snapshot families.
func WriteEnvelope(w io.Writer, kind uint32, payload []byte) error {
	v := Version(kind)
	if v == 0 {
		return fmt.Errorf("snapshot: unknown payload kind %d", kind)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], v)
	binary.LittleEndian.PutUint32(hdr[12:], kind)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("snapshot: write payload: %w", err)
	}
	return nil
}

// ReadEnvelope validates the envelope and returns the payload bytes. It
// never panics on malformed input; every failure wraps one of the Err*
// sentinels (a kind mismatch wraps ErrCorrupt: the envelope was intact but
// wraps a different state family). The kind is checked before the
// version, so a file of another family is named as such whatever its
// version.
func ReadEnvelope(r io.Reader, kind uint32) ([]byte, error) {
	hdr := make([]byte, headerLen)
	if n, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: %d-byte header, want %d", ErrTruncated, n, headerLen)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, hdr[:8])
	}
	if k := binary.LittleEndian.Uint32(hdr[12:]); k != kind {
		return nil, fmt.Errorf("%w: payload kind %d, want %d", ErrCorrupt, k, kind)
	}
	if v, want := binary.LittleEndian.Uint32(hdr[8:]), Version(kind); v != want {
		return nil, fmt.Errorf("%w: kind %d file is v%d, reader is v%d", ErrVersion, kind, v, want)
	}
	plen := binary.LittleEndian.Uint64(hdr[16:])
	// LimitReader bounds the allocation to what the stream actually holds,
	// so an absurd declared length on a tiny file fails as truncated
	// instead of attempting a huge allocation.
	payload, err := io.ReadAll(io.LimitReader(r, int64(plen)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrTruncated, err)
	}
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: payload is %d bytes, envelope declares %d", ErrTruncated, len(payload), plen)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(hdr[24:]) {
		return nil, fmt.Errorf("%w: payload CRC %#x, envelope declares %#x",
			ErrChecksum, sum, binary.LittleEndian.Uint32(hdr[24:]))
	}
	return payload, nil
}

// Write serializes the state to w in the envelope format.
func Write(w io.Writer, st *RunState) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	return WriteEnvelope(w, KindRun, payload.Bytes())
}

// Read deserializes one snapshot from r, validating the envelope. Decode
// failures return errors wrapping the Err* sentinels; Read never panics on
// malformed input.
func Read(r io.Reader) (*RunState, error) {
	payload, err := ReadEnvelope(r, KindRun)
	if err != nil {
		return nil, err
	}
	st := new(RunState)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: gob decode: %v", ErrCorrupt, err)
	}
	return st, nil
}

// SaveFile writes the state to path, replacing any existing file
// atomically: the bytes go to a temporary file in the same directory and
// are renamed over path only once fully written, so a crash or kill
// mid-save can never destroy the previous good checkpoint — the whole
// point of keeping one.
func SaveFile(path string, st *RunState) error {
	return saveAtomic(path, func(w io.Writer) error { return Write(w, st) })
}

// saveAtomic streams write's output into a temporary file next to path
// and renames it over path once it is fully written and closed.
func saveAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	// CreateTemp opens 0600; keep the 0644 the plain-create path used.
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// LoadFile reads one snapshot from path.
func LoadFile(path string) (*RunState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return Read(f)
}
