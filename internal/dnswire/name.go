package dnswire

import (
	"errors"
	"strings"
)

// Name handling. Names are represented in presentation form as
// dot-terminated lowercase strings ("www.example.com."); the root is ".".
// Wire form uses length-prefixed labels with RFC 1035 §4.1.4 compression
// pointers.

// Errors returned by name encoding and decoding.
var (
	ErrNameTooLong    = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label in name")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrBadPointer     = errors.New("dnswire: compression pointer out of range")
	ErrTruncatedName  = errors.New("dnswire: truncated name")
	ErrTrailingGarbge = errors.New("dnswire: bad name syntax")
	errReservedLabel  = errors.New("dnswire: reserved label type")
)

const (
	maxNameWire  = 255
	maxLabelWire = 63
	// maxPointers bounds pointer chasing; a legal message cannot need more
	// hops than it has bytes/2, and 128 is far beyond any real name.
	maxPointers = 128
)

// CanonicalName lowercases the ASCII letters of s (DNS case folding is
// ASCII-only, RFC 4343; other octets pass through) and ensures it is
// dot-terminated. A name already in that form — every name Unpack or a
// Zone hands out — is returned as is, without allocating. It does not
// validate label lengths; use SplitLabels or AppendName for that.
func CanonicalName(s string) string {
	if s == "" {
		return "."
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			return canonicalize(s)
		}
	}
	if s[len(s)-1] != '.' {
		return canonicalize(s)
	}
	return s
}

// canonicalize is CanonicalName's rewriting path; it allocates the result.
func canonicalize(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		sb.WriteByte(c)
	}
	if s[len(s)-1] != '.' {
		sb.WriteByte('.')
	}
	return sb.String()
}

// SplitLabels splits a canonical name into its labels, excluding the root.
// SplitLabels(".") returns nil.
func SplitLabels(name string) []string {
	name = CanonicalName(name)
	if name == "." {
		return nil
	}
	return strings.Split(strings.TrimSuffix(name, "."), ".")
}

// CountLabels returns the number of labels in name, excluding the root.
func CountLabels(name string) int {
	return len(SplitLabels(name))
}

// ParentName returns the name with its leftmost label removed; the parent
// of "." is ".".
func ParentName(name string) string {
	name = CanonicalName(name)
	if name == "." {
		return "."
	}
	i := strings.IndexByte(name, '.')
	if i+1 >= len(name) {
		return "."
	}
	return name[i+1:]
}

// IsSubdomain reports whether child is equal to or below parent.
func IsSubdomain(child, parent string) bool {
	child, parent = CanonicalName(child), CanonicalName(parent)
	if parent == "." {
		return true
	}
	if child == parent {
		return true
	}
	return strings.HasSuffix(child, "."+parent)
}

// nameWireLen returns the uncompressed wire length of a canonical name.
func nameWireLen(name string) int {
	name = CanonicalName(name)
	if name == "." {
		return 1
	}
	return len(name) + 1
}

// compressor tracks names already emitted during Pack so later
// occurrences can be replaced by pointers. Entries hold canonical
// suffixes (substrings of the names being packed, so recording one is
// allocation-free) and their offsets into the message. The entry count
// is small in practice, so a linear scan beats a map: it needs no
// per-message allocation and the slice is reusable across messages via
// a sync.Pool (see Pack).
type compressor struct {
	entries []compEntry
}

type compEntry struct {
	suffix string
	off    uint16
}

// maxCompressorEntries bounds the scan; suffixes beyond it are simply
// not recorded (correct, just marginally less compression on messages
// with very many distinct names).
const maxCompressorEntries = 128

// compressionMap is the historical name for the compression state
// threaded through rdata encoders; it is now a pooled struct.
type compressionMap = *compressor

func (c *compressor) lookup(suffix string) (int, bool) {
	for i := range c.entries {
		if c.entries[i].suffix == suffix {
			return int(c.entries[i].off), true
		}
	}
	return 0, false
}

func (c *compressor) add(suffix string, off int) {
	if len(c.entries) < maxCompressorEntries {
		c.entries = append(c.entries, compEntry{suffix: suffix, off: uint16(off)})
	}
}

// reset clears the entries, dropping string references so pooled
// compressors do not pin packed messages in memory.
func (c *compressor) reset() {
	clear(c.entries)
	c.entries = c.entries[:0]
}

// appendName appends the wire encoding of name to buf. When cmp is non-nil
// and msgStart gives the offset of the message start within buf, suffixes
// already present in cmp are replaced by compression pointers and new
// suffixes are recorded (only offsets that fit in 14 bits are recorded, per
// RFC 1035). For a canonical name the encoding performs no allocations:
// suffixes are substrings of name and labels are appended directly.
//
//ldlint:noalloc
func appendName(buf []byte, name string, cmp compressionMap, msgStart int) ([]byte, error) {
	name = CanonicalName(name)
	if nameWireLen(name) > maxNameWire {
		return buf, ErrNameTooLong
	}
	if name == "." {
		return append(buf, 0), nil
	}
	// rest is always the canonical dot-terminated suffix starting at the
	// current label, e.g. "www.example.com." → "example.com." → "com.".
	for rest := name; rest != ""; {
		if cmp != nil {
			if off, ok := cmp.lookup(rest); ok {
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if off := len(buf) - msgStart; off < 0x4000 {
				cmp.add(rest, off)
			}
		}
		i := strings.IndexByte(rest, '.')
		if i == 0 {
			return buf, ErrEmptyLabel
		}
		if i > maxLabelWire {
			return buf, ErrLabelTooLong
		}
		buf = append(buf, byte(i))
		buf = append(buf, rest[:i]...)
		rest = rest[i+1:]
	}
	return append(buf, 0), nil
}

// unpackName decodes a possibly compressed name from msg starting at off.
// It returns the canonical presentation form and the offset just past the
// name's in-place encoding (i.e. past the first pointer if one occurred).
// The decoded string is the only allocation, and the root costs none.
// Record data decodes its names here; Message.Unpack decodes owner and
// question names into the Message's name chunk instead.
func unpackName(msg []byte, off int) (string, int, error) {
	var buf [maxNameWire]byte
	n, next, err := decodeName(msg, off, &buf)
	switch {
	case err != nil:
		return "", 0, err
	case n == 0:
		return ".", next, nil
	}
	return string(buf[:n]), next, nil
}

// decodeName lowercases the possibly compressed name at msg[off:] into
// buf in presentation form (without the root's lone dot: n is 0 for the
// root) and returns its length and the offset just past the name's
// in-place encoding. A name's presentation form is one octet shorter
// than its wire form, so buf always has room.
//
//ldlint:noalloc
func decodeName(msg []byte, off int, buf *[maxNameWire]byte) (n, next int, err error) {
	ptrBudget := maxPointers
	// next is the offset to resume at after the name; set when the first
	// pointer is followed.
	next = -1
	for {
		if off >= len(msg) {
			return 0, 0, ErrTruncatedName
		}
		b := int(msg[off])
		switch {
		case b == 0:
			if next == -1 {
				next = off + 1
			}
			return n, next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, 0, ErrTruncatedName
			}
			ptr := (b&0x3F)<<8 | int(msg[off+1])
			if next == -1 {
				next = off + 2
			}
			if ptr >= off {
				// Forward (or self) pointers are illegal and would loop.
				return 0, 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return 0, 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return 0, 0, errReservedLabel
		default:
			if off+1+b > len(msg) {
				return 0, 0, ErrTruncatedName
			}
			if n+b+1 > maxNameWire {
				return 0, 0, ErrNameTooLong
			}
			for _, c := range msg[off+1 : off+1+b] {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				buf[n] = c
				n++
			}
			buf[n] = '.'
			n++
			off += 1 + b
		}
	}
}

// ValidName reports whether name is syntactically legal: non-empty labels
// of at most 63 octets and a total wire length of at most 255 octets.
func ValidName(name string) bool {
	name = CanonicalName(name)
	if nameWireLen(name) > maxNameWire {
		return false
	}
	if name == "." {
		return true
	}
	for _, l := range SplitLabels(name) {
		if l == "" || len(l) > maxLabelWire {
			return false
		}
	}
	return true
}

// CompareNames orders names in canonical DNS order (RFC 4034 §6.1):
// by reversed label sequence. It is used for NSEC chains and deterministic
// zone-file output. Labels are compared in place, right to left, so the
// comparison allocates nothing for canonical names.
//
//ldlint:noalloc
func CompareNames(a, b string) int {
	a, b = CanonicalName(a), CanonicalName(b)
	// Drop the root dot; what is left is labels joined by dots, and the
	// root itself has none.
	ra, rb := a[:len(a)-1], b[:len(b)-1]
	moreA, moreB := a != ".", b != "."
	for moreA && moreB {
		sa, sb := strings.LastIndexByte(ra, '.')+1, strings.LastIndexByte(rb, '.')+1
		if c := strings.Compare(ra[sa:], rb[sb:]); c != 0 {
			return c
		}
		if moreA = sa > 0; moreA {
			ra = ra[:sa-1]
		}
		if moreB = sb > 0; moreB {
			rb = rb[:sb-1]
		}
	}
	switch {
	case moreB:
		return -1
	case moreA:
		return 1
	}
	return 0
}
