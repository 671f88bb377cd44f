package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"steins/internal/nvmem"
	"steins/internal/snapshot"
)

// The two minimized boundary cases the campaign found once degraded-mode
// cases ran the full tamper arsenal. Both are authentic-stale ReplayData
// strikes that the old blanket LInc forgiveness silently absorbed; under
// evidence arbitration both must classify as detected-quarantine. Kept as
// hand-pinned artifacts so any regression in the arbitration logic
// reproduces the original silent corruption here first.

// reproReplayUnderTornWrite is minimized campaign case 64 (seed-7 sweep):
// a ReplayData tamper landing while torn-crash media damage (TornOnCrash
// 0.25) heals around it. The media-torn excuse used to forgive the whole
// level-0 increment equality; exact accounting narrows the excuse to the
// torn line itself and the replayed leaf quarantines replay-shaped.
func reproReplayUnderTornWrite() *Artifact {
	return &Artifact{
		Case: Case{
			Index: 64, Scheme: "Steins-GC", Workload: "kv_uniform",
			Seed: 8548921452456689817, Channels: 4, Footprint: 128 << 10,
			Sched: Schedule{
				Degraded: true,
				Faults: nvmem.FaultConfig{
					Seed:             10216850002904328447,
					TransientPerRead: 0.00030000000000000003,
					DoubleBitFrac:    0.2,
					StuckPerWrite:    0.0002,
					TornOnCrash:      0.25,
				},
				Rounds: []Round{
					{Ops: 115, Crash: true, CrashEv: 3, CrashN: 77,
						Recrash: true, RecrashStep: 1, RecrashChan: 4},
					{Ops: 91, Crash: true, CrashEv: 2, CrashN: 2},
					{Ops: 130, Crash: true, CrashEv: 3, CrashN: 51,
						Tampers: []Tamper{
							{Scenario: 4, TargetIdx: 54935},
							{Scenario: 2, TargetIdx: 54189},
						}},
				},
			},
		},
		Verdict: DetectedQuarantine,
		Detail:  "recovery quarantined level 0 index 1 (cause replay-shaped, evidence none)",
	}
}

// reproReplayBehindAmbiguousQuarantine is minimized campaign case 28
// (seed-11 sweep): evidence-free data bit-flips force two ambiguous
// level-0 quarantines, and a ReplayData strike on a *different* leaf used
// to hide behind their standing verdict — the already-arbitrated band
// forgave the residual shortfall without fencing the replayed leaf. Now a
// residual mismatch at an arbitrated level quarantines the remaining
// suspects too.
func reproReplayBehindAmbiguousQuarantine() *Artifact {
	return &Artifact{
		Case: Case{
			Index: 28, Scheme: "Steins-GC", Workload: "kv_b_zipf",
			Seed: 7164261484067460021, Channels: 4, Footprint: 128 << 10,
			Sched: Schedule{
				Degraded: true,
				Faults: nvmem.FaultConfig{
					Seed:             4257955705281218343,
					TransientPerRead: 0.0002,
					DoubleBitFrac:    0.2,
					TornOnCrash:      0.25,
				},
				Rounds: []Round{
					{Ops: 70, Crash: true, CrashEv: 3, CrashN: 22,
						Recrash: true, RecrashStep: 16, RecrashChan: 6},
					{Ops: 84, Crash: true, CrashEv: 2, CrashN: 3,
						Recrash: true, RecrashStep: 9, RecrashChan: 0,
						Tampers:  []Tamper{{Scenario: 2, TargetIdx: 29803}},
						FlipData: 2},
					{Ops: 85, Crash: true, CrashEv: 1, CrashN: 6,
						Recrash: true, RecrashStep: 16, RecrashChan: 1,
						Tampers:   []Tamper{{Scenario: 5, TargetIdx: 28420}},
						FlipNodes: 1},
				},
			},
		},
		Verdict: DetectedQuarantine,
		Detail:  "recovery quarantined level 0 index 46 (cause ambiguous, evidence none)",
	}
}

// TestReplayBoundaryRepros replays both pinned artifacts and demands the
// exact recorded classification: verdict AND detail. A drift in either
// means the arbitration boundary moved — inspect before re-pinning.
func TestReplayBoundaryRepros(t *testing.T) {
	for _, a := range []*Artifact{
		reproReplayUnderTornWrite(),
		reproReplayBehindAmbiguousQuarantine(),
	} {
		res, ok := Replay(a)
		if !ok {
			t.Errorf("case %d (%s/%s): verdict %v, want %v (detail %q)",
				a.Case.Index, a.Case.Scheme, a.Case.Workload, res.Verdict, a.Verdict, res.Detail)
			continue
		}
		if res.Detail != a.Detail {
			t.Errorf("case %d (%s/%s): detail %q, want %q",
				a.Case.Index, a.Case.Scheme, a.Case.Workload, res.Detail, a.Detail)
		}
	}
}

// TestReplayBoundaryArtifactRoundTrip pins the codec over the boundary
// artifacts: encode → decode → encode must be byte-identical, so the
// repro files stay content-addressable.
func TestReplayBoundaryArtifactRoundTrip(t *testing.T) {
	for _, a := range []*Artifact{
		reproReplayUnderTornWrite(),
		reproReplayBehindAmbiguousQuarantine(),
	} {
		data, err := EncodeArtifact(a)
		if err != nil {
			t.Fatalf("case %d: encode: %v", a.Case.Index, err)
		}
		b, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("case %d: decode: %v", a.Case.Index, err)
		}
		again, err := EncodeArtifact(b)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", a.Case.Index, err)
		}
		if string(again) != string(data) {
			t.Fatalf("case %d: artifact codec not canonical", a.Case.Index)
		}
	}
}

// TestCommittedCorpusDecodes pins the committed FuzzCampaignSchedule
// seeds as readable repro artifacts: each seed-NN file is a repro
// envelope at the kind's current version (still 1: the repro payload is
// not gob and embeds no controller state), decodes to exactly
// corpusArtifacts()[NN], and re-encodes to the same bytes; the
// replay-under-torn boundary seed replays to its recorded verdict and
// detail. A format change that breaks this must not be papered over by
// regenerating the corpus.
func TestCommittedCorpusDecodes(t *testing.T) {
	for i, want := range corpusArtifacts() {
		name := fmt.Sprintf("seed-%02d", i)
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCampaignSchedule", name))
		if err != nil {
			t.Fatal(err)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
		s, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file: %v", name, err)
		}
		data := []byte(s)
		if v := binary.LittleEndian.Uint32(data[8:]); v != 1 || v != snapshot.Version(snapshot.KindRepro) {
			t.Fatalf("%s: envelope version %d, repro reader at %d", name, v, snapshot.Version(snapshot.KindRepro))
		}
		got, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decodes to\n%+v\nwant\n%+v", name, got, want)
		}
		again, err := EncodeArtifact(got)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encode differs (err %v)", name, err)
		}
		if reflect.DeepEqual(want, reproReplayUnderTornWrite()) {
			if res, ok := Replay(got); !ok || res.Detail != want.Detail {
				t.Fatalf("%s: replay gave %v %q, want %v %q", name, res.Verdict, res.Detail, want.Verdict, want.Detail)
			}
		}
	}
}
