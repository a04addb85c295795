package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	ckpt "p3q/internal/checkpoint"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_checkpoint.bin and the FuzzRestore seed from the current engine")

// seedName is the FuzzRestore corpus entry holding the golden snapshot of
// the current format version. The entries of older versions stay in the
// corpus as version-mismatch inputs.
var seedName = fmt.Sprintf("valid-v%d-snapshot", ckpt.Version)

// TestCheckpointGoldenRoundTrip pins the checkpoint byte format against a
// golden file committed to the repository. TestCheckpointSnapshotRoundTripBytes
// proves Snapshot -> Restore -> Snapshot is a fixed point within one build;
// the golden extends that across commits: refactors of the engine's
// in-memory layout (dense personal networks, pooled plan slots, lazily
// allocated branch maps) must not perturb a single byte of the wire format,
// or old checkpoints silently stop restoring. A deliberate format change
// bumps checkpoint.Version and regenerates the golden with:
//
//	go test ./internal/core/ -run TestCheckpointGoldenRoundTrip -update-golden
//
// which rewrites FuzzRestore's valid-snapshot seed of the current version
// (the same bytes, in seedName) too.
func TestCheckpointGoldenRoundTrip(t *testing.T) {
	raw, cfg := smallSnapshot(t)
	path := filepath.Join("testdata", "golden_checkpoint.bin")
	if *updateGolden {
		seed := "go test fuzz v1\n[]byte(" + strconv.Quote(string(raw)) + ")\n"
		seedPath := filepath.Join("testdata", "fuzz", "FuzzRestore", seedName)
		for p, data := range map[string][]byte{path: raw, seedPath: []byte(seed)} {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", p, len(data))
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden checkpoint unreadable (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(raw, golden) {
		t.Fatalf("checkpoint byte stream diverged from the golden (%d vs %d bytes); "+
			"if a format change is intentional, bump the version and regenerate with -update-golden",
			len(raw), len(golden))
	}
	e, err := Restore(bytes.NewReader(golden), nil, cfg)
	if err != nil {
		t.Fatalf("golden checkpoint no longer restores: %v", err)
	}
	var again bytes.Buffer
	if err := e.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, again.Bytes()) {
		t.Fatalf("restore -> snapshot of the golden changed the byte stream (%d vs %d bytes)",
			len(golden), again.Len())
	}
}
