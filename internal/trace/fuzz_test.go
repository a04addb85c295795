package trace

import (
	"bytes"
	"testing"
)

// FuzzLoad hardens the binary trace parser: arbitrary input must never
// panic or hang, and every dataset that round-trips through Save must load
// back identically.
func FuzzLoad(f *testing.F) {
	// Seed corpus: a valid trace, a truncated one, garbage, empties, a
	// trace cut on a field boundary, and a header claiming 2^24 users.
	p := DefaultGenParams(20)
	p.MeanItems = 8
	p.Seed = 1
	var valid bytes.Buffer
	if err := Save(&valid, Generate(p)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(valid.Bytes()[:16+8])
	f.Add(hugeHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejecting malformed input is correct
		}
		// Anything accepted must be internally consistent and re-saveable.
		if ds.Users() < 0 {
			t.Fatal("negative user count")
		}
		var out bytes.Buffer
		if err := Save(&out, ds); err != nil {
			t.Fatalf("re-saving a loaded dataset failed: %v", err)
		}
		back, err := Load(&out)
		if err != nil {
			t.Fatalf("reloading a saved dataset failed: %v", err)
		}
		if back.Users() != ds.Users() || back.TotalActions() != ds.TotalActions() {
			t.Fatal("save/load round trip not idempotent")
		}
	})
}
