package zone

import (
	"sort"

	"ldplayer/internal/dnswire"
)

// index is the compiled, immutable form of a Zone that Lookup answers
// from. Everything that depends only on the zone's contents is worked
// out once here — which names exist, where the cuts are, which RRSIGs
// cover which RRset, what a referral or a negative answer carries — so a
// query is a walk over the node table plus a slice of a precomputed
// section. An index is never modified after buildIndex returns; Add
// drops it and the next Lookup builds a fresh one.
type index struct {
	origin string
	// nodes maps every existing owner name (empty non-terminals
	// included) to its node. The apex always has one.
	nodes map[string]*node
	apex  *node
	// negative is the authority section of a NODATA or NXDOMAIN answer:
	// the SOA, then the RRSIGs covering it.
	negative section
	// nsecOwners lists the owners of NSEC RRsets in canonical order, and
	// denial[i] is the whole DNSSEC negative authority section whose proof
	// is nsecOwners[i]'s NSEC: negative, then that NSEC and its RRSIGs.
	// The NSEC covering a name is the last owner at or before it.
	nsecOwners []string
	denial     [][]dnswire.RR
}

// section is a precomputed response section in two lengths: rrs[:plain]
// answers a plain query and all of rrs one with the DO bit set; the tail
// is the DNSSEC material (covering RRSIGs, the DS set at a cut).
type section struct {
	rrs   []dnswire.RR
	plain int
}

// view returns the section for one query as a cap-limited slice: the
// caller may append to it (the append copies) but must not write its
// elements, which are the zone's own.
//
//ldlint:noalloc
func (s *section) view(dnssec bool) []dnswire.RR {
	if dnssec {
		return s.rrs[:len(s.rrs):len(s.rrs)]
	}
	return s.rrs[:s.plain:s.plain]
}

// records and sigs split the section at plain.
func (s *section) records() []dnswire.RR { return s.rrs[:s.plain] }
func (s *section) sigs() []dnswire.RR    { return s.rrs[s.plain:] }

// rrset is one RRset of a node followed by the RRSIGs covering it.
type rrset struct {
	typ dnswire.Type
	section
}

// node is one existing owner name.
type node struct {
	// sets holds the node's RRsets in ascending type order; an empty
	// non-terminal has none.
	sets []rrset
	// all is the answer to qtype ANY: every RRset in type order, then
	// every covering RRSIG in the same order.
	all section
	// cut is non-nil at a delegation point (NS below the apex).
	cut *referral
	// wild is the node's "*" child when that owns records.
	wild *node
}

// referral is the precomputed delegation response of one cut.
type referral struct {
	// authority is the NS set, then (DNSSEC) the DS set and its RRSIGs.
	authority section
	// glue is the A then AAAA RRset of each NS host the zone has data for.
	glue []dnswire.RR
}

// set returns the node's RRset of type t, or nil.
//
//ldlint:noalloc
func (n *node) set(t dnswire.Type) *rrset {
	for i := range n.sets {
		if n.sets[i].typ == t {
			return &n.sets[i]
		}
	}
	return nil
}

// answer returns the section that answers qtype at n — for ANY, every
// RRset — or nil when n has none.
//
//ldlint:noalloc
func (n *node) answer(qtype dnswire.Type) *section {
	if qtype == dnswire.TypeANY {
		if len(n.sets) == 0 {
			return nil
		}
		return &n.all
	}
	if s := n.set(qtype); s != nil {
		return &s.section
	}
	return nil
}

// Compile builds the lookup index if an Add has happened since the last
// build. Lookup does so on demand; a server calls it at load time so that
// no query pays. Concurrent callers build once.
func (z *Zone) Compile() {
	z.buildMu.Lock()
	defer z.buildMu.Unlock()
	if z.index.Load() == nil {
		z.index.Store(buildIndex(z))
	}
}

// buildIndex compiles z's load-time maps.
func buildIndex(z *Zone) *index {
	ix := &index{origin: z.Origin, nodes: make(map[string]*node, len(z.names)+1)}
	store := make([]node, 1, len(z.names)+1)
	ix.apex = &store[0]
	ix.nodes[z.Origin] = ix.apex
	for name := range z.names {
		if name != z.Origin {
			store = append(store, node{})
			ix.nodes[name] = &store[len(store)-1]
		}
	}

	for key, rrs := range z.rrsets {
		n := ix.nodes[key.name]
		n.sets = append(n.sets, rrset{typ: key.typ, section: section{rrs: rrs[:len(rrs):len(rrs)], plain: len(rrs)}})
	}
	for w := range z.wildcards {
		if p := ix.nodes[dnswire.ParentName(w)]; p != nil {
			p.wild = ix.nodes[w]
		}
	}
	for name, n := range ix.nodes {
		if len(n.sets) > 1 {
			sort.Slice(n.sets, func(i, j int) bool { return n.sets[i].typ < n.sets[j].typ })
		}
		ix.attachSigs(name, n)
	}
	for cut := range z.cuts {
		ix.nodes[cut].cut = ix.buildReferral(z, ix.nodes[cut])
	}
	ix.buildNegative()
	return ix
}

// attachSigs appends to each RRset of n the RRSIGs covering it and
// assembles n.all. The RRSIGs come from n's own RRSIG set; a node that has
// none borrows those of its sibling wildcard, renamed to itself.
func (ix *index) attachSigs(name string, n *node) {
	var pool []dnswire.RR
	if own := n.set(dnswire.TypeRRSIG); own != nil {
		pool = own.records()
	} else if p := ix.nodes[dnswire.ParentName(name)]; n != ix.apex && p != nil && p.wild != nil {
		if borrowed := p.wild.set(dnswire.TypeRRSIG); borrowed != nil {
			for _, rr := range borrowed.records() {
				rr.Name = name
				pool = append(pool, rr)
			}
		}
	}
	for i := range n.sets {
		s := &n.sets[i]
		var sigs []dnswire.RR
		for _, rr := range pool {
			if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == s.typ {
				sigs = append(sigs, rr)
			}
		}
		if len(sigs) > 0 {
			s.rrs = append(append(make([]dnswire.RR, 0, s.plain+len(sigs)), s.rrs...), sigs...)
		}
	}
	if len(n.sets) == 1 {
		n.all = n.sets[0].section
		return
	}
	for i := range n.sets {
		n.all.rrs = append(n.all.rrs, n.sets[i].records()...)
	}
	n.all.plain = len(n.all.rrs)
	for i := range n.sets {
		n.all.rrs = append(n.all.rrs, n.sets[i].sigs()...)
	}
}

// buildReferral assembles the delegation response for the cut at n. Glue
// is looked up in the zone's RRset map, not the node table: it lives
// below the cut or in another branch, and is served wherever it is.
func (ix *index) buildReferral(z *Zone, n *node) *referral {
	ns := n.set(dnswire.TypeNS).records()
	r := &referral{authority: section{rrs: ns, plain: len(ns)}}
	if ds := n.set(dnswire.TypeDS); ds != nil {
		r.authority.rrs = append(append(make([]dnswire.RR, 0, len(ns)+len(ds.rrs)), ns...), ds.rrs...)
	}
	for _, rr := range ns {
		host, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		r.glue = append(r.glue, z.RRset(host.Host, dnswire.TypeA)...)
		r.glue = append(r.glue, z.RRset(host.Host, dnswire.TypeAAAA)...)
	}
	r.glue = r.glue[:len(r.glue):len(r.glue)]
	return r
}

// buildNegative assembles the negative-answer authority section and one
// denial section per NSEC owner. A zone without a SOA has neither.
func (ix *index) buildNegative() {
	soa := ix.apex.set(dnswire.TypeSOA)
	if soa == nil {
		return
	}
	ix.negative.rrs = append(append([]dnswire.RR(nil), soa.records()[0]), soa.sigs()...)
	ix.negative.plain = 1

	total := 0
	for name, n := range ix.nodes {
		if s := n.set(dnswire.TypeNSEC); s != nil {
			ix.nsecOwners = append(ix.nsecOwners, name)
			total += len(ix.negative.rrs) + len(s.rrs)
		}
	}
	sort.Slice(ix.nsecOwners, func(i, j int) bool {
		return dnswire.CompareNames(ix.nsecOwners[i], ix.nsecOwners[j]) < 0
	})
	store := make([]dnswire.RR, 0, total)
	ix.denial = make([][]dnswire.RR, len(ix.nsecOwners))
	for i, name := range ix.nsecOwners {
		from := len(store)
		store = append(store, ix.negative.rrs...)
		store = append(store, ix.nodes[name].set(dnswire.TypeNSEC).rrs...)
		ix.denial[i] = store[from:len(store):len(store)]
	}
}
