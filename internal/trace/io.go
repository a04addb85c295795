package trace

import (
	"errors"
	"fmt"
	"io"

	"p3q/internal/binio"
	"p3q/internal/tagging"
)

// Binary trace format, so that a real crawl (e.g. an actual delicious dump)
// can be converted once and loaded by every tool in this repository:
//
//	magic   uint32 = 0x50335130 ("P3Q0")
//	users   uint32
//	items   uint32 (size of the item ID space)
//	tags    uint32 (size of the tag ID space)
//	per user:
//	  owner   uint32
//	  actions uint32
//	  actions x { item uint32, tag uint32 }
//
// All integers are little-endian, written and read through the
// sticky-error carrier of internal/binio: the first failed read or write
// is retained and every later operation is a no-op, so the call sites
// stay linear and check the error once.
const traceMagic = 0x50335130

var errBadMagic = errors.New("trace: bad magic (not a P3Q trace file)")

// maxUsers is the population sanity limit of a trace header.
const maxUsers = 1 << 24

// Save writes the dataset in the binary trace format.
func Save(w io.Writer, d *Dataset) error {
	tw := binio.MakeWriter(w, "trace")
	tw.U32(traceMagic)
	tw.U32(uint32(d.Users()))
	tw.U32(uint32(d.NumItems))
	tw.U32(uint32(d.NumTags))
	for _, p := range d.Profiles {
		tw.U32(uint32(p.Owner()))
		tw.U32(uint32(p.Len()))
		for _, a := range p.Actions() {
			tw.U32(uint32(a.Item))
			tw.U32(uint32(a.Tag))
		}
	}
	return tw.Flush()
}

// Load reads a dataset written by Save. Loaded datasets have no generator
// metadata: change-sets drawn from them use the global item space.
func Load(r io.Reader) (*Dataset, error) {
	tr := binio.MakeReader(r, "trace")
	if magic := tr.U32(); magic != traceMagic {
		tr.FailWith(errBadMagic)
	}
	users := tr.Count(maxUsers)
	items := tr.U32()
	tags := tr.U32()
	if tr.Err() != nil {
		return nil, tr.Err()
	}
	// The header's user count is only a claim until that many profiles
	// have arrived: reserve a bounded prefix and grow by append.
	d := &Dataset{
		Profiles: make([]*tagging.Profile, 0, binio.CapHint(users, 1<<16)),
		NumItems: int(items),
		NumTags:  int(tags),
	}
	var actions []tagging.Action
	for i := 0; i < users; i++ {
		owner := tr.U32()
		n := tr.U32()
		if tr.Err() == nil && owner != uint32(i) {
			tr.Fail("user %d has owner field %d (profiles must be dense)", i, owner)
		}
		// n is unvalidated: the batch grows as actions arrive, and a failed
		// reader must not spin through it.
		actions = actions[:0]
		for j := uint32(0); j < n && tr.Err() == nil; j++ {
			actions = append(actions, tagging.Action{Item: tagging.ItemID(tr.U32()), Tag: tagging.TagID(tr.U32())})
		}
		p := tagging.NewProfile(tagging.UserID(owner))
		if tr.Err() == nil {
			if _, dup := p.AddAll(actions); dup >= 0 {
				tr.Fail("action %d (%d, %d) repeats an earlier one", dup, actions[dup].Item, actions[dup].Tag)
			}
		}
		if tr.Err() != nil {
			return nil, fmt.Errorf("%w (user %d of %d)", tr.Err(), i, users)
		}
		d.Profiles = append(d.Profiles, p)
	}
	return d, nil
}
