package rctree

import (
	"hash/maphash"
	"math"
	"strings"
	"unsafe"
)

// Node names live in one string, with the int32 offset of each name in
// index order, and are found through nameIndex: a flat open-addressing
// table with no per-node string header and no pointer for the collector
// to scan. A Builder fills both as nodes are added; a deck reader fills
// a NameTable while it scans its text and the Builder adopts it.

// nameSeed seeds the name hash for the life of the process.
var nameSeed = maphash.MakeSeed()

// hashMask is ANDed into every name hash. Tests set it to 0, which puts
// every name on one probe chain with one tag.
var hashMask = ^uint64(0)

func nameHash(name string) uint64 { return maphash.String(nameSeed, name) & hashMask }

// nameIndex maps names to indices. Each slot is one word: the high 32
// bits of the name's hash (its tag) above index+1, or 0 for an empty
// slot. A name's probe starts at slot tag&mask and runs linearly, so a
// slot word alone gives its home slot: the table grows, renumbers and
// drops entries without hashing a name again. Its length is a power of
// two and it is at most half full.
type nameIndex []uint64

// newNameIndex returns an empty table with room for n names.
func newNameIndex(n int) nameIndex {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return make(nameIndex, size)
}

// find looks up name, whose hash is h, in a table whose index i names
// text[lo[i]:hi[i]]. It returns the index of name, or -1 and the empty
// slot where name belongs.
func (x nameIndex) find(h uint64, name, text string, lo, hi []int32) (i int32, slot int) {
	mask := uint64(len(x) - 1)
	tag := h >> 32
	for s := tag & mask; ; s = (s + 1) & mask {
		w := x[s]
		if w == 0 {
			return -1, int(s)
		}
		if w>>32 == tag {
			if i := int32(uint32(w)) - 1; text[lo[i]:hi[i]] == name {
				return i, int(s)
			}
		}
	}
}

// insert adds index i, the table's (i+1)th entry, for an absent name
// whose hash is h, at slot s, the empty slot find returned. A table
// that would be over half full first doubles, and the entry then goes
// to the first empty slot from its home.
func (x *nameIndex) insert(h uint64, i int32, s int) {
	w := h&^math.MaxUint32 | uint64(i+1)
	if 2*int(i+1) <= len(*x) {
		(*x)[s] = w
		return
	}
	y := make(nameIndex, 2*len(*x))
	for _, v := range *x {
		if v != 0 {
			y.put(v)
		}
	}
	y.put(w)
	*x = y
}

// put stores the slot word w at the first empty slot from its home.
func (x nameIndex) put(w uint64) {
	mask := uint64(len(x) - 1)
	s := w >> 32 & mask
	for x[s] != 0 {
		s = (s + 1) & mask
	}
	x[s] = w
}

// remove empties slot s and moves later entries of its run back, so
// that no probe chain through s is cut.
func (x nameIndex) remove(s int) {
	mask := len(x) - 1
	for {
		x[s] = 0
		j := s
		for {
			j = (j + 1) & mask
			w := x[j]
			if w == 0 {
				return
			}
			// The entry at j may fill the hole at s when s lies on
			// its probe path, from its home up to j.
			if home := int(w>>32) & mask; (j-home)&mask >= (j-s)&mask {
				x[s] = w
				s = j
				break
			}
		}
	}
}

// nameList is the names of a tree or Builder: name i is
// text[off[i]:off[i+1]], and index finds a name's i.
type nameList struct {
	text  string
	off   []int32 // len N+1, off[0] == 0
	index nameIndex
}

func (l *nameList) name(i int) string { return l.text[l.off[i]:l.off[i+1]] }

// find returns the index of name, or -1, with the name's hash and the
// slot find gave it.
func (l *nameList) find(name string) (i int32, h uint64, slot int) {
	n := len(l.off) - 1
	h = nameHash(name)
	i, slot = l.index.find(h, name, l.text, l.off[:n], l.off[1:])
	return i, h, slot
}

func (l *nameList) lookup(name string) (int, bool) {
	i, _, _ := l.find(name)
	return int(i), i >= 0
}

// add appends name, which find did not find and gave hash h and slot
// s. text holds the names so far, and l.text becomes its string.
func (l *nameList) add(text *strings.Builder, name string, h uint64, s int) {
	l.index.insert(h, int32(len(l.off)-1), s)
	text.WriteString(name)
	l.text = text.String()
	l.off = append(l.off, int32(len(l.text)))
}

// NameTable is a node-name index a deck reader fills while it scans its
// text, for a Builder to adopt in place of building its own
// (NewBuilderNames). Every name is a span of the text, so nothing is
// copied during the scan; each name gets a dense id in order of first
// appearance. Reindex then renumbers the ids to tree indices and copies
// each name once, in tree order, into a string of the table's own.
type NameTable struct {
	text   string
	lo, hi []int32 // id -> span of its name in text
	index  nameIndex
	names  nameList // the tree's names, after Reindex
}

// NewNameTable returns an empty table of names in text, with room for
// n names. Its spans are int32 offsets, so text must be shorter than
// 2 GiB.
func NewNameTable(text string, n int) *NameTable {
	return &NameTable{
		text:  text,
		lo:    make([]int32, 0, n),
		hi:    make([]int32, 0, n),
		index: newNameIndex(n),
	}
}

// Intern returns the id of the name text[lo:hi], giving it the next id
// if it is new; added reports which.
func (x *NameTable) Intern(lo, hi int) (id int32, added bool) {
	name := x.text[lo:hi]
	h := nameHash(name)
	id, s := x.index.find(h, name, x.text, x.lo, x.hi)
	if id >= 0 {
		return id, false
	}
	id = int32(len(x.lo))
	x.index.insert(h, id, s)
	x.lo = append(x.lo, int32(lo))
	x.hi = append(x.hi, int32(hi))
	return id, true
}

// Len returns the number of names interned.
func (x *NameTable) Len() int { return len(x.lo) }

// Name returns the name with the given id, a substring of the text.
func (x *NameTable) Name(id int32) string { return x.text[x.lo[id]:x.hi[id]] }

// Reindex turns the table into a tree's name index: index[id] is the
// tree index of the node named id, or -1 for a name the tree does not
// hold, and the tree indices must be 0..n-1 for n names. It drops the
// names the tree does not hold, rewrites each slot's id to its tree
// index in one pass over the table, and copies each name once into one
// new string, laid out in tree order, so the table keeps nothing of the
// text. The table takes no more names afterwards.
func (x *NameTable) Reindex(index []int32) {
	n := 0
	for id, k := range index {
		if k >= 0 {
			n++
			continue
		}
		name := x.Name(int32(id))
		_, s := x.index.find(nameHash(name), name, x.text, x.lo, x.hi)
		x.index.remove(s)
	}
	for s, w := range x.index {
		if w != 0 {
			x.index[s] = w&^math.MaxUint32 | uint64(index[uint32(w)-1]+1)
		}
	}
	// The names are copied in id order, the order they first appear in
	// the text, so the text is read front to back.
	off := make([]int32, n+1)
	for id, k := range index {
		if k >= 0 {
			off[k+1] = x.hi[id] - x.lo[id]
		}
	}
	for k := 0; k < n; k++ {
		off[k+1] += off[k]
	}
	buf := make([]byte, off[n])
	for id, k := range index {
		if k >= 0 {
			copy(buf[off[k]:], x.Name(int32(id)))
		}
	}
	// Nothing writes buf after this, so the string may share it.
	x.names = nameList{text: unsafe.String(unsafe.SliceData(buf), len(buf)), off: off, index: x.index}
	x.text, x.lo, x.hi, x.index = "", nil, nil, nil
}
