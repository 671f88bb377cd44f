package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"steins/internal/crashfuzz"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/scheme/steins"
	"steins/internal/server"
	"steins/internal/snapshot"
	"steins/securemem"
)

// serverStateFixture builds a two-tenant server state from live
// controllers so the payload exercises the full ControllerState surface.
func serverStateFixture(t *testing.T) *snapshot.ServerState {
	t.Helper()
	mk := func(seed byte) memctrl.ControllerState {
		c := memctrl.New(memctrl.DefaultConfig(64<<10, true), steins.Factory)
		for i := 0; i < 40; i++ {
			var b [64]byte
			b[0], b[1] = seed, byte(i)
			if err := c.WriteData(1, uint64(i%32)*64, b); err != nil {
				t.Fatal(err)
			}
		}
		st, err := c.State()
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	return &snapshot.ServerState{Tenants: []snapshot.TenantState{
		{Name: "alice", Scheme: "Steins-SC", AppliedSeq: 40,
			PGs: []snapshot.PGState{{Channels: []memctrl.ControllerState{mk(1), mk(2)}}}},
		{Name: "bob", Scheme: "Steins-SC", AppliedSeq: 40,
			PGs: []snapshot.PGState{{Channels: []memctrl.ControllerState{mk(3)}}}},
	}}
}

// Identical server states must encode to identical bytes (the restart
// differential tests byte-compare checkpoints), and the round trip must
// preserve the full structure.
func TestServerStateDeterministicRoundTrip(t *testing.T) {
	st := serverStateFixture(t)
	a, err := snapshot.EncodeServer(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.EncodeServer(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical server states encoded to different bytes")
	}
	back, err := snapshot.DecodeServer(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tenants) != 2 || back.Tenants[0].Name != "alice" || back.Tenants[1].Name != "bob" {
		t.Fatalf("round trip lost tenants: %+v", back.Tenants)
	}
	if len(back.Tenants[0].PGs[0].Channels) != 2 || back.Tenants[0].AppliedSeq != 40 {
		t.Fatalf("round trip lost PG shape: %+v", back.Tenants[0])
	}
	reencoded, err := snapshot.EncodeServer(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, reencoded) {
		t.Fatal("decode∘encode is not the identity")
	}
}

// Malformed server checkpoints must be rejected with the envelope
// sentinels — truncation, bit flips, and a wrong payload kind — and never
// decode to a half-valid state.
func TestServerStateNegative(t *testing.T) {
	good, err := snapshot.EncodeServer(serverStateFixture(t))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(good) / 2, len(good) - 1} {
			if _, err := snapshot.DecodeServer(bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for _, pos := range []int{1, 9, 20, len(good) - 3} {
			bad := append([]byte(nil), good...)
			bad[pos] ^= 0x40
			if _, err := snapshot.DecodeServer(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit flip at %d accepted", pos)
			}
		}
	})
	t.Run("wrong-kind", func(t *testing.T) {
		var buf bytes.Buffer
		if err := snapshot.WriteEnvelope(&buf, snapshot.KindRepro, []byte("not a server state")); err != nil {
			t.Fatal(err)
		}
		_, err := snapshot.DecodeServer(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("wrong kind: err = %v, want ErrCorrupt", err)
		}
	})
}

// SaveServerFile must be atomic: a save over an existing checkpoint either
// fully replaces it or leaves the old bytes intact, and the 0644 mode is
// preserved.
func TestSaveServerFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "server.state")
	st := serverStateFixture(t)
	if err := snapshot.SaveServerFile(path, st); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Tenants[0].AppliedSeq = 99
	if err := snapshot.SaveServerFile(path, st); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, second) {
		t.Fatal("second save did not replace the checkpoint")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", info.Mode().Perm())
	}
	back, err := snapshot.LoadServerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tenants[0].AppliedSeq != 99 {
		t.Fatalf("loaded AppliedSeq = %d, want 99", back.Tenants[0].AppliedSeq)
	}
	// Leftover temp files would mean a failed cleanup path.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after saves, want 1", len(entries))
	}
}

// TestRestoreStateRejectsMalformedColumns is the serving-layer half of
// the column table: a CRC-valid KindServer checkpoint with one malformed
// column must make Pool.RestoreState fail with the typed
// *nvmem.StateError naming the column, never panic, and leave the pool
// exactly as it was.
func TestRestoreStateRejectsMalformedColumns(t *testing.T) {
	const poolBytes = 2 * 64 * 64
	cfg := server.Config{Tenants: []server.TenantConfig{{
		Name: "kv", Scheme: securemem.SteinsGC, PGs: 2, PoolBytes: poolBytes,
	}}}
	src, err := server.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var specs []server.OpSpec
	for a := uint64(0); a < poolBytes; a += securemem.BlockSize {
		spec := server.OpSpec{IsWrite: true, Addr: a}
		spec.Data[0] = byte(a >> 6)
		specs = append(specs, spec)
	}
	if _, aerr := src.Do("kv", specs); aerr != nil {
		t.Fatal(aerr)
	}
	good, err := src.StateBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range snapshot.MalformedColumns {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			st, err := snapshot.DecodeServer(bytes.NewReader(good))
			if err != nil {
				t.Fatal(err)
			}
			tc.Cut(&st.Tenants[0].PGs[0].Channels[0])
			wire, err := snapshot.EncodeServer(st)
			if err != nil {
				t.Fatal(err)
			}
			back, err := snapshot.DecodeServer(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("malformed column must pass the envelope, got %v", err)
			}
			dst, err := server.NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			before, err := dst.StateBytes()
			if err != nil {
				t.Fatal(err)
			}
			err = dst.RestoreState(back)
			var se *nvmem.StateError
			if !errors.As(err, &se) || se.Column != tc.Column {
				t.Fatalf("RestoreState error %v does not name column %s", err, tc.Column)
			}
			after, err := dst.StateBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("rejected checkpoint mutated the pool")
			}
		})
	}
}

// TestVersionPerKind pins the per-kind format versions. A run, server or
// crashfuzz-campaign checkpoint from a version-1 build (one gob struct per
// line and per tag) must be refused with ErrVersion, not decoded into
// structs whose columns gob would silently leave empty; the adversarial
// and repro kinds, whose payloads did not change, stay at version 1.
func TestVersionPerKind(t *testing.T) {
	for kind, want := range map[uint32]uint32{
		snapshot.KindRun: 2, snapshot.KindCampaign: 2, snapshot.KindServer: 2,
		snapshot.KindAdversarial: 1, snapshot.KindRepro: 1,
	} {
		if got := snapshot.Version(kind); got != want {
			t.Errorf("kind %d is at version %d, want %d", kind, got, want)
		}
	}
	asV1 := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[8:], 1)
		return b
	}

	var run bytes.Buffer
	if err := snapshot.Write(&run, &snapshot.RunState{Header: snapshot.RunHeader{Workload: "pers_queue", Scheme: "Steins-GC"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Read(bytes.NewReader(run.Bytes())); err != nil {
		t.Fatalf("current run envelope: %v", err)
	}
	if _, err := snapshot.Read(bytes.NewReader(asV1(run.Bytes()))); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("v1 run envelope: err = %v, want ErrVersion", err)
	}

	srv, err := snapshot.EncodeServer(serverStateFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.DecodeServer(bytes.NewReader(asV1(srv))); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("v1 server envelope: err = %v, want ErrVersion", err)
	}

	path := filepath.Join(t.TempDir(), "campaign.snap")
	if err := crashfuzz.WriteCampaign(path, &crashfuzz.CampaignState{Scheme: "Steins-GC"}); err != nil {
		t.Fatal(err)
	}
	if _, err := crashfuzz.ReadCampaign(path); err != nil {
		t.Fatalf("current campaign envelope: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, asV1(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := crashfuzz.ReadCampaign(path); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("v1 campaign envelope: err = %v, want ErrVersion", err)
	}
}
