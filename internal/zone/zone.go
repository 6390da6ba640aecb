// Package zone implements the DNS zone data model used by LDplayer: an
// RRset store with authoritative lookup semantics (answers, referrals at
// zone cuts, wildcard expansion, CNAME chasing, NXDOMAIN/NODATA with SOA),
// plus a master-file parser and serializer so reconstructed zones are
// reusable artifacts exactly as §2.3 of the paper requires.
package zone

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ldplayer/internal/dnswire"
)

// rrKey identifies an RRset within a zone.
type rrKey struct {
	name string
	typ  dnswire.Type
}

// Zone holds the authoritative data for a single zone (one origin).
// It is safe for concurrent readers once loading is complete. The maps
// below are the load-time form; Lookup answers from the compiled index
// (index.go) built from them.
type Zone struct {
	// Origin is the canonical apex name, e.g. "com." or ".".
	Origin string

	rrsets map[rrKey][]dnswire.RR
	// dedup keeps, per RRset, the presentation form of every rdata already
	// inserted, so Add detects duplicates with one set probe instead of
	// re-rendering the whole RRset (which made loading large reconstructed
	// zones O(n²) in the RRset size).
	dedup map[rrKey]map[string]struct{}
	// names records every owner name that exists (has any RRset), for the
	// NXDOMAIN vs NODATA distinction and empty-non-terminal detection.
	names map[string]struct{}
	// cuts records delegation points: names strictly below the origin that
	// own NS RRsets. Lookups at or below a cut yield referrals.
	cuts map[string]struct{}
	// wildcards records owner names of the form *.parent.
	wildcards map[string]struct{}

	// index is the compiled form Lookup reads: nil until the first Lookup
	// (or Compile) after the last Add, which builds it under buildMu.
	index   atomic.Pointer[index]
	buildMu sync.Mutex
}

// New creates an empty zone rooted at origin.
func New(origin string) *Zone {
	return &Zone{
		Origin:    dnswire.CanonicalName(origin),
		rrsets:    make(map[rrKey][]dnswire.RR),
		dedup:     make(map[rrKey]map[string]struct{}),
		names:     make(map[string]struct{}),
		cuts:      make(map[string]struct{}),
		wildcards: make(map[string]struct{}),
	}
}

// Add inserts rr into the zone. Owner names outside the zone are rejected.
// Duplicate records (same name, type, rdata) are silently coalesced.
func (z *Zone) Add(rr dnswire.RR) error {
	name := dnswire.CanonicalName(rr.Name)
	if !dnswire.IsSubdomain(name, z.Origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.Origin, name)
	}
	if rr.Data == nil {
		return fmt.Errorf("zone %s: record %s has no data", z.Origin, name)
	}
	rr.Name = name
	key := rrKey{name: name, typ: rr.Type()}
	rendered := rr.Data.String()
	seen := z.dedup[key]
	if seen == nil {
		seen = make(map[string]struct{}, 1)
		z.dedup[key] = seen
	}
	if _, dup := seen[rendered]; dup {
		return nil // duplicate
	}
	seen[rendered] = struct{}{}
	z.index.Store(nil)
	z.rrsets[key] = append(z.rrsets[key], rr)
	z.names[name] = struct{}{}
	// Register empty non-terminals so intermediate names answer NODATA
	// rather than NXDOMAIN.
	for p := dnswire.ParentName(name); dnswire.IsSubdomain(p, z.Origin) && p != z.Origin; p = dnswire.ParentName(p) {
		z.names[p] = struct{}{}
	}
	if rr.Type() == dnswire.TypeNS && name != z.Origin {
		z.cuts[name] = struct{}{}
	}
	if strings.HasPrefix(name, "*.") {
		z.wildcards[name] = struct{}{}
	}
	return nil
}

// AddAll inserts every record, stopping at the first error.
func (z *Zone) AddAll(rrs []dnswire.RR) error {
	for _, rr := range rrs {
		if err := z.Add(rr); err != nil {
			return err
		}
	}
	return nil
}

// RRset returns the records for (name, type), or nil.
func (z *Zone) RRset(name string, t dnswire.Type) []dnswire.RR {
	return z.rrsets[rrKey{name: dnswire.CanonicalName(name), typ: t}]
}

// SOA returns the zone's SOA record, or false when the zone has none.
func (z *Zone) SOA() (dnswire.RR, bool) {
	set := z.RRset(z.Origin, dnswire.TypeSOA)
	if len(set) == 0 {
		return dnswire.RR{}, false
	}
	return set[0], true
}

// NameExists reports whether name owns any RRset (or is an empty
// non-terminal) in the zone.
func (z *Zone) NameExists(name string) bool {
	_, ok := z.names[dnswire.CanonicalName(name)]
	return ok
}

// NumRecords returns the total record count.
func (z *Zone) NumRecords() int {
	n := 0
	for _, set := range z.rrsets {
		n += len(set)
	}
	return n
}

// Names returns every owner name in canonical DNS order.
func (z *Zone) Names() []string {
	out := make([]string, 0, len(z.names))
	for n := range z.names {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		return dnswire.CompareNames(out[i], out[j]) < 0
	})
	return out
}

// Records returns all records, grouped by owner in canonical order and by
// ascending type within an owner. The result is deterministic, which keeps
// serialized zone files diff-stable across runs.
func (z *Zone) Records() []dnswire.RR {
	keys := make([]rrKey, 0, len(z.rrsets))
	for k := range z.rrsets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if c := dnswire.CompareNames(keys[i].name, keys[j].name); c != 0 {
			return c < 0
		}
		return keys[i].typ < keys[j].typ
	})
	var out []dnswire.RR
	for _, k := range keys {
		set := append([]dnswire.RR(nil), z.rrsets[k]...)
		sort.Slice(set, func(i, j int) bool { return set[i].Data.String() < set[j].Data.String() })
		out = append(out, set...)
	}
	return out
}

// Validate checks structural invariants: the zone has a SOA and an apex NS
// set, and every in-zone NS target that is below a cut has glue.
func (z *Zone) Validate() []error {
	var errs []error
	if _, ok := z.SOA(); !ok {
		errs = append(errs, fmt.Errorf("zone %s: missing SOA", z.Origin))
	}
	if len(z.RRset(z.Origin, dnswire.TypeNS)) == 0 {
		errs = append(errs, fmt.Errorf("zone %s: missing apex NS", z.Origin))
	}
	for cut := range z.cuts {
		for _, rr := range z.RRset(cut, dnswire.TypeNS) {
			host := rr.Data.(dnswire.NS).Host
			if dnswire.IsSubdomain(host, cut) &&
				len(z.RRset(host, dnswire.TypeA)) == 0 &&
				len(z.RRset(host, dnswire.TypeAAAA)) == 0 {
				errs = append(errs, fmt.Errorf("zone %s: in-bailiwick NS %s for %s lacks glue", z.Origin, host, cut))
			}
		}
	}
	return errs
}
