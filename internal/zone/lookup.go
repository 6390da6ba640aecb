package zone

import (
	"strings"

	"ldplayer/internal/dnswire"
)

// AnswerKind classifies the outcome of an authoritative lookup.
type AnswerKind int

// Lookup outcomes.
const (
	// Answer: authoritative data for (qname, qtype) in Records.
	Answer AnswerKind = iota
	// Referral: qname is at or below a zone cut; Authority carries the NS
	// set and Additional the glue.
	Referral
	// NoData: the name exists but has no RRset of qtype; Authority carries
	// the SOA for negative caching.
	NoData
	// NXDomain: the name does not exist; Authority carries the SOA.
	NXDomain
	// OutOfZone: qname is not within this zone at all.
	OutOfZone
)

// String returns a short mnemonic for k.
func (k AnswerKind) String() string {
	switch k {
	case Answer:
		return "ANSWER"
	case Referral:
		return "REFERRAL"
	case NoData:
		return "NODATA"
	case NXDomain:
		return "NXDOMAIN"
	case OutOfZone:
		return "OUTOFZONE"
	}
	return "?"
}

// Result is the outcome of Lookup, already split into response sections.
//
// The sections are read-only views of the zone's compiled data, shared
// with every other Lookup of the same zone. Reading them and appending to
// them as returned is safe: each view's capacity equals its length, so an
// append copies before it grows. Assigning to an element is not — it
// rewrites the zone's answer for every later query — and neither is
// appending to a shortened re-slice (s[:0], s[:1]), which has room to
// write in place.
type Result struct {
	Kind       AnswerKind
	Records    []dnswire.RR // answer section (includes chased CNAMEs)
	Authority  []dnswire.RR
	Additional []dnswire.RR
}

// LookupOptions tunes lookup behaviour.
type LookupOptions struct {
	// DNSSEC attaches RRSIG records covering each returned RRset and NSEC
	// records on negative answers (set from the query's DO bit).
	DNSSEC bool
}

// Lookup resolves (qname, qtype) against the zone with full authoritative
// semantics. The order of checks mirrors RFC 1034 §4.3.2: referral cut
// first, then exact match, CNAME, wildcard, and finally the negative
// answers. It answers from the zone's compiled index (see index) and
// allocates only to expand a wildcard or follow a CNAME chain.
//
//ldlint:noalloc
func (z *Zone) Lookup(qname string, qtype dnswire.Type, opts LookupOptions) Result {
	ix := z.index.Load()
	if ix == nil {
		//ldlint:ignore noallocprop index build: once after the last Add, not per query
		z.Compile()
		ix = z.index.Load()
	}
	return ix.lookup(dnswire.CanonicalName(qname), qtype, opts.DNSSEC)
}

// lookup answers one canonical qname. It walks qname's suffixes from the
// label just below the apex downward — each one a substring of qname — so
// one pass finds the highest cut above the name, the node itself when it
// exists, and otherwise its closest encloser (whose "*" child is the only
// wildcard that can match).
//
//ldlint:noalloc
func (ix *index) lookup(qname string, qtype dnswire.Type, dnssec bool) Result {
	n, exact := ix.apex, qname == ix.origin
	if !exact {
		// end is the dot that closes qname's last label below the origin.
		end := len(qname) - 1
		if ix.origin != "." {
			end -= len(ix.origin)
			if end < 0 || qname[end] != '.' || qname[end+1:] != ix.origin {
				return Result{Kind: OutOfZone}
			}
		}
		for !exact {
			start := strings.LastIndexByte(qname[:end], '.') + 1
			child := ix.nodes[qname[start:]]
			if child == nil {
				break // nothing below a name that does not exist
			}
			n, exact = child, start == 0
			// The highest cut wins: everything below it is the child's,
			// except the DS RRset at the cut itself, which the parent owns.
			if n.cut != nil && !(exact && qtype == dnswire.TypeDS) {
				return Result{Kind: Referral, Authority: n.cut.authority.view(dnssec), Additional: n.cut.glue}
			}
			end = start - 1
		}
	}

	// src is the node whose data answers: the name itself, or the
	// wildcard under its closest encloser.
	src := n
	if !exact {
		src = n.wild
	}
	kind := NXDomain
	if src != nil {
		kind = NoData
		var direct *section
		if exact || qtype != dnswire.TypeANY { // ANY does not match a wildcard's RRsets
			direct = src.answer(qtype)
		}
		if direct != nil && exact {
			return Result{Kind: Answer, Records: direct.view(dnssec)}
		}
		if direct != nil || (qtype != dnswire.TypeCNAME && src.set(dnswire.TypeCNAME) != nil) {
			//ldlint:ignore noallocprop wildcard expansion and CNAME chains assemble a fresh answer section per query; every other outcome is a view
			return ix.synthesize(src, exact, qname, qtype, dnssec)
		}
	}
	return Result{Kind: kind, Authority: ix.negativeAuthority(qname, dnssec)}
}

// negativeAuthority returns the authority section of a NODATA or NXDOMAIN
// answer for qname: the SOA, plus (DNSSEC) its RRSIGs and the NSEC that
// covers qname when the zone has a chain.
//
//ldlint:noalloc
func (ix *index) negativeAuthority(qname string, dnssec bool) []dnswire.RR {
	if dnssec {
		lo, hi := 0, len(ix.nsecOwners)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if dnswire.CompareNames(ix.nsecOwners[mid], qname) <= 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			return ix.denial[lo-1]
		}
	}
	return ix.negative.view(dnssec)
}

// maxCNAMEChain bounds in-zone CNAME chasing; RFC 1034 resolvers bail far
// earlier, and loops must not hang the server.
const maxCNAMEChain = 8

// synthesize builds the answers that cannot be views: src's records
// re-owned by qname when src is a wildcard (!exact), and CNAME chains.
// The caller has checked that src holds qtype or a CNAME.
func (ix *index) synthesize(src *node, exact bool, qname string, qtype dnswire.Type, dnssec bool) Result {
	out := make([]dnswire.RR, 0, 4)
	var sigs []dnswire.RR
	depth := 0
	if !exact {
		var recs []dnswire.RR
		s := src.set(qtype)
		if s != nil {
			recs = s.records()
		} else {
			s = src.set(dnswire.TypeCNAME)
			recs = s.records()[:1]
		}
		for _, rr := range recs {
			rr.Name = qname
			out = append(out, rr)
		}
		if dnssec {
			for _, rr := range s.sigs() {
				rr.Name = qname
				sigs = append(sigs, rr)
			}
		}
		if s.typ == qtype {
			return Result{Kind: Answer, Records: append(out, sigs...)}
		}
		src = ix.nodes[dnswire.CanonicalName(recs[0].Data.(dnswire.CNAME).Target)]
		depth = 1
	}

	// Follow CNAMEs inside the zone. Targets are looked up as plain nodes:
	// neither cuts nor wildcards apply to them, and a target outside the
	// zone (or absent from it) ends the chain.
	var seen [maxCNAMEChain + 1]*rrset
	hops := 0
	for ; src != nil && depth <= maxCNAMEChain; depth++ {
		s := src.answer(qtype)
		if s != nil {
			out = append(out, s.records()...)
			if dnssec {
				sigs = append(sigs, s.sigs()...)
			}
			break
		}
		cname := src.set(dnswire.TypeCNAME)
		if cname == nil || qtype == dnswire.TypeCNAME {
			break
		}
		out = append(out, cname.records()[0])
		// A loop revisits an RRset; its RRSIGs go out once.
		revisit := false
		for _, prev := range seen[:hops] {
			revisit = revisit || prev == cname
		}
		if !revisit {
			seen[hops] = cname
			hops++
			if dnssec {
				sigs = append(sigs, cname.sigs()...)
			}
		}
		src = ix.nodes[dnswire.CanonicalName(cname.records()[0].Data.(dnswire.CNAME).Target)]
	}
	return Result{Kind: Answer, Records: append(out, sigs...)}
}
