package zone

// The map-walking Lookup that the compiled index (index.go, lookup.go)
// replaced, kept verbatim — methods renamed ref* — as the oracle for the
// differential test and fuzz target in lookup_diff_test.go. It re-derives
// the zone's shape per query from the Zone's load-time maps and is
// O(zone) on DNSSEC negative answers and ANY; do not use it outside tests.

import (
	"strings"

	"ldplayer/internal/dnswire"
)

// refLookup resolves (qname, qtype) against the zone with full authoritative
// semantics. The order of checks mirrors RFC 1034 §4.3.2:
// referral cut first, then exact match, CNAME, wildcard, and finally the
// negative answers.
func (z *Zone) refLookup(qname string, qtype dnswire.Type, opts LookupOptions) Result {
	qname = dnswire.CanonicalName(qname)
	if !dnswire.IsSubdomain(qname, z.Origin) {
		return Result{Kind: OutOfZone}
	}

	// Zone cut: answer with a referral unless the query is for the DS
	// RRset exactly at the cut (which the parent owns).
	if cut := z.refDeepestCut(qname); cut != "" && !(qname == cut && qtype == dnswire.TypeDS) {
		return z.refReferral(cut, opts)
	}

	var res Result
	res.Records = z.refAnswerChasing(qname, qtype, opts, 0)
	if len(res.Records) > 0 {
		res.Kind = Answer
		z.refAttachSigs(&res.Records, opts)
		return res
	}

	if z.NameExists(qname) {
		res.Kind = NoData
	} else if wname := z.refMatchWildcard(qname); wname != "" {
		if set := z.RRset(wname, qtype); len(set) > 0 {
			res.Kind = Answer
			for _, rr := range set {
				rr.Name = qname // wildcard expansion
				res.Records = append(res.Records, rr)
			}
			z.refAttachSigs(&res.Records, opts)
			return res
		}
		if set := z.RRset(wname, dnswire.TypeCNAME); len(set) > 0 {
			rr := set[0]
			rr.Name = qname
			res.Kind = Answer
			res.Records = append(res.Records, rr)
			res.Records = append(res.Records, z.refAnswerChasing(rr.Data.(dnswire.CNAME).Target, qtype, opts, 1)...)
			z.refAttachSigs(&res.Records, opts)
			return res
		}
		res.Kind = NoData
	} else {
		res.Kind = NXDomain
	}

	if soa, ok := z.SOA(); ok {
		res.Authority = append(res.Authority, soa)
		if opts.DNSSEC {
			res.Authority = append(res.Authority, z.refSigsFor(soa.Name, dnswire.TypeSOA)...)
			res.Authority = append(res.Authority, z.refNsecFor(qname)...)
		}
	}
	return res
}

// answerChasing returns the RRset for (qname, qtype), following CNAMEs
// within the zone. qtype CNAME and ANY are answered directly.
func (z *Zone) refAnswerChasing(qname string, qtype dnswire.Type, opts LookupOptions, depth int) []dnswire.RR {
	if depth > maxCNAMEChain {
		return nil
	}
	qname = dnswire.CanonicalName(qname)
	if qtype == dnswire.TypeANY {
		var out []dnswire.RR
		for key, set := range z.rrsets {
			if key.name == qname {
				out = append(out, set...)
			}
		}
		return out
	}
	if set := z.RRset(qname, qtype); len(set) > 0 {
		return append([]dnswire.RR(nil), set...)
	}
	if qtype == dnswire.TypeCNAME {
		return nil
	}
	if set := z.RRset(qname, dnswire.TypeCNAME); len(set) > 0 {
		out := append([]dnswire.RR(nil), set[0])
		target := set[0].Data.(dnswire.CNAME).Target
		if dnswire.IsSubdomain(target, z.Origin) {
			out = append(out, z.refAnswerChasing(target, qtype, opts, depth+1)...)
		}
		return out
	}
	return nil
}

// referral builds a delegation response for the cut name.
func (z *Zone) refReferral(cut string, opts LookupOptions) Result {
	res := Result{Kind: Referral}
	res.Authority = append(res.Authority, z.RRset(cut, dnswire.TypeNS)...)
	if opts.DNSSEC {
		// A signed delegation carries the DS set (or its absence proof).
		if ds := z.RRset(cut, dnswire.TypeDS); len(ds) > 0 {
			res.Authority = append(res.Authority, ds...)
			res.Authority = append(res.Authority, z.refSigsFor(cut, dnswire.TypeDS)...)
		}
	}
	for _, rr := range res.Authority {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		res.Additional = append(res.Additional, z.RRset(ns.Host, dnswire.TypeA)...)
		res.Additional = append(res.Additional, z.RRset(ns.Host, dnswire.TypeAAAA)...)
	}
	return res
}

// matchWildcard returns the wildcard owner ("*.parent.") that would cover
// qname, or "". The closest-encloser rule applies: only the wildcard at
// the nearest existing ancestor matches.
func (z *Zone) refMatchWildcard(qname string) string {
	if len(z.wildcards) == 0 {
		return ""
	}
	labels := dnswire.SplitLabels(qname)
	for i := 1; i <= len(labels); i++ {
		parent := strings.Join(labels[i:], ".")
		if parent == "" {
			parent = "."
		} else {
			parent += "."
		}
		candidate := "*." + strings.TrimPrefix(parent, ".")
		if parent == "." {
			candidate = "*."
		}
		if _, ok := z.wildcards[candidate]; ok {
			return candidate
		}
		if !dnswire.IsSubdomain(parent, z.Origin) {
			break
		}
		// If the intermediate name exists, it blocks wildcards above it
		// only when i == 1 (the direct parent); the classic rule is that
		// an existing closest encloser stops the search.
		if i < len(labels) && z.NameExists(parent) {
			break
		}
	}
	return ""
}

// attachSigs appends the RRSIGs covering every distinct (name, type) pair
// in records when DNSSEC is requested.
func (z *Zone) refAttachSigs(records *[]dnswire.RR, opts LookupOptions) {
	if !opts.DNSSEC {
		return
	}
	seen := make(map[rrKey]struct{})
	var sigs []dnswire.RR
	for _, rr := range *records {
		k := rrKey{name: rr.Name, typ: rr.Type()}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		sigs = append(sigs, z.refSigsFor(rr.Name, rr.Type())...)
	}
	*records = append(*records, sigs...)
}

// sigsFor returns the RRSIG records covering (name, covered). Wildcard-
// expanded names fall back to the wildcard owner's signatures.
func (z *Zone) refSigsFor(name string, covered dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	candidates := z.RRset(name, dnswire.TypeRRSIG)
	if len(candidates) == 0 {
		if w := z.refMatchWildcard(name); w != "" {
			for _, rr := range z.RRset(w, dnswire.TypeRRSIG) {
				rr.Name = name
				candidates = append(candidates, rr)
			}
		}
	}
	for _, rr := range candidates {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == covered {
			out = append(out, rr)
		}
	}
	return out
}

// nsecFor returns an NSEC record (plus its signature) proving the
// nonexistence of qname, when the zone carries an NSEC chain.
func (z *Zone) refNsecFor(qname string) []dnswire.RR {
	// Find the closest predecessor owner name carrying an NSEC record.
	var best string
	for key := range z.rrsets {
		if key.typ != dnswire.TypeNSEC {
			continue
		}
		if dnswire.CompareNames(key.name, qname) <= 0 &&
			(best == "" || dnswire.CompareNames(key.name, best) > 0) {
			best = key.name
		}
	}
	if best == "" {
		return nil
	}
	out := append([]dnswire.RR(nil), z.RRset(best, dnswire.TypeNSEC)...)
	out = append(out, z.refSigsFor(best, dnswire.TypeNSEC)...)
	return out
}

// deepestCut returns the highest (closest to the apex) delegation point
// strictly above-or-at qname, or "" when the name is not under any cut.
// The highest cut wins because everything below it belongs to the child.
func (z *Zone) refDeepestCut(qname string) string {
	labels := dnswire.SplitLabels(qname)
	origin := z.Origin
	// Walk from just below the origin toward qname.
	depthOrigin := dnswire.CountLabels(origin)
	for i := len(labels) - depthOrigin - 1; i >= 0; i-- {
		candidate := strings.Join(labels[i:], ".") + "."
		if _, ok := z.cuts[candidate]; ok {
			return candidate
		}
	}
	return ""
}

// RefLookup exposes the reference to the external differential test,
// which lives in package zone_test so it can sign zones with
// internal/dnssec (that package imports this one).
func (z *Zone) RefLookup(qname string, qtype dnswire.Type, opts LookupOptions) Result {
	return z.refLookup(qname, qtype, opts)
}

// MaxCNAMEChain exposes the chase bound to the same test.
const MaxCNAMEChain = maxCNAMEChain
