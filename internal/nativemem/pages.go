package nativemem

// Pages is a sparse set of page-sized byte buffers keyed by page number:
// the backing of a Memory's written pages, or a tool's per-page shadow
// state. Reset empties it in constant time: each page remembers the Reset
// epoch it was last made in, and one from an earlier epoch reads as absent.
// A page keeps its buffer across Reset, so a run that makes the pages the
// last run made, as a rerun of the same program does, allocates none and
// inserts nothing; a page made again comes back zeroed. The buffers held
// are those of every page made since the set was created. The zero value
// is an empty set.
type Pages struct {
	slot  map[uint64]int // page number -> its index in pages
	pages []page
	made  []uint64 // the pages made since Reset, in the order they were made
	epoch uint64
}

type page struct {
	buf   []byte
	epoch uint64 // the epoch the page was last made in
}

// Get returns page idx's buffer, or nil if it has not been made since
// Reset.
func (ps *Pages) Get(idx uint64) []byte {
	if i, ok := ps.slot[idx]; ok && ps.pages[i].epoch == ps.epoch {
		return ps.pages[i].buf
	}
	return nil
}

// Make returns page idx's buffer, making it zeroed if it has not been made
// since Reset.
func (ps *Pages) Make(idx uint64) []byte {
	i, ok := ps.slot[idx]
	if !ok {
		if ps.slot == nil {
			ps.slot = make(map[uint64]int)
		}
		i = len(ps.pages)
		ps.slot[idx] = i
		ps.pages = append(ps.pages, page{buf: make([]byte, PageSize), epoch: ps.epoch})
	} else if p := &ps.pages[i]; p.epoch != ps.epoch {
		clear(p.buf) // made in an earlier epoch
		p.epoch = ps.epoch
	} else {
		return p.buf
	}
	ps.made = append(ps.made, idx)
	return ps.pages[i].buf
}

// Made lists the pages made since Reset, in the order they were made. The
// slice is the set's own: read it before the next Make or Reset.
func (ps *Pages) Made() []uint64 { return ps.made }

// Reset empties the set, keeping every buffer it holds.
func (ps *Pages) Reset() {
	ps.epoch++
	ps.made = ps.made[:0]
}

// BufferBytes is the size of the buffers the set holds.
func (ps *Pages) BufferBytes() int64 { return int64(len(ps.pages)) * PageSize }
