package zone

import (
	"strings"
	"testing"

	"ldplayer/internal/dnswire"
)

// FuzzZoneParse feeds arbitrary master files to Parse. Nothing may
// panic, and a zone that parses must compile and answer a Lookup for
// every owner name it holds — plus a name below each, to reach
// wildcards, cuts and NXDOMAIN — for a spread of types, with and without
// DNSSEC. The seeds are the shapes real master-file parsers special-case:
// parentheses anywhere, blank and inherited owners, $ORIGIN and $TTL in
// mid-file, 2048-byte tokens and $INCLUDE.
func FuzzZoneParse(f *testing.F) {
	long := strings.Repeat("a", 2048)
	for _, seed := range []string{
		sampleZoneText,
		"@ IN SOA ns1 host ( 1 2\n 3 4 5 )\n( @ ) NS ( ns1 )\n",
		"@ SOA ns1 host 1 2 3 4 5\n\tNS ns1\n   A 192.0.2.1\n",
		"$ORIGIN example.com.\n$TTL 60\nwww A 192.0.2.1\n$ORIGIN sub.example.com.\n$TTL 1h30m\nwww A 192.0.2.2\n",
		"$ORIGIN .\n@ NS ns.example.com.\ncom. NS a.gtld.\n*.com. A 192.0.2.9\n",
		"   A 192.0.2.1\n",
		long + " A 192.0.2.1\n",
		"txt TXT \"" + long + "\"\n",
		"$INCLUDE other.zone\n",
		"a CNAME b\nb CNAME a\n*.w CNAME x.w\n",
		"sig RRSIG A 8 2 300 1 0 1 example.com. AAAA\n@ NSEC a A NS RRSIG NSEC\n",
		"x TYPE65280 \\# 2 abcd\n",
		")\n",
		"(\n",
	} {
		f.Add(seed)
	}
	qtypes := [...]dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeCNAME,
		dnswire.TypeSOA, dnswire.TypeTXT, dnswire.TypeDS, dnswire.TypeANY}
	f.Fuzz(func(t *testing.T, text string) {
		z, err := Parse(strings.NewReader(text), "example.com.")
		if err != nil {
			return
		}
		z.Compile()
		for _, name := range z.Names() {
			for _, qname := range [...]string{name, "x." + name} {
				for _, qt := range qtypes {
					for _, dnssec := range [...]bool{false, true} {
						z.Lookup(qname, qt, LookupOptions{DNSSEC: dnssec})
					}
				}
			}
		}
	})
}
