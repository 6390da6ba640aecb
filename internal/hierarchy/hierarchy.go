// Package hierarchy synthesizes complete multi-level DNS hierarchies —
// root zone, TLD zones, and SLD zones with consistent delegations and
// glue — so experiments run entirely inside the testbed with no Internet
// dependency. It also assembles the split-horizon view set that lets one
// meta-DNS-server serve the whole tree (§2.4).
package hierarchy

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnssec"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/zone"
)

// Options configures hierarchy synthesis.
type Options struct {
	// RootServers is the number of root nameservers (default 13, like
	// the real root).
	RootServers int
	// ServersPerZone is the NS-set size for TLDs and SLDs (default 2).
	ServersPerZone int
	// Signed signs every zone and publishes DS records at the parents.
	Signed bool
	// DNSSEC configures signing when Signed is set.
	DNSSEC dnssec.Config
	// TTL for generated records (default 3600).
	TTL uint32
}

func (o *Options) setDefaults() {
	if o.RootServers <= 0 {
		o.RootServers = 13
	}
	if o.ServersPerZone <= 0 {
		o.ServersPerZone = 2
	}
	if o.TTL == 0 {
		o.TTL = 3600
	}
}

// Hierarchy is a consistent multi-level zone set.
type Hierarchy struct {
	Root *zone.Zone
	// TLDs and SLDs are keyed by canonical origin ("com.", "example.com.").
	TLDs map[string]*zone.Zone
	SLDs map[string]*zone.Zone
	// NSAddrs maps each zone origin to its nameserver addresses — the
	// split-horizon match set and the address pool for proxies.
	NSAddrs map[string][]netip.Addr
}

// addrAlloc hands out deterministic testbed nameserver addresses.
type addrAlloc struct{ next uint32 }

func (a *addrAlloc) take() netip.Addr {
	a.next++
	// 198.18.0.0/15 is reserved for benchmarking — fitting for a testbed.
	v := a.next
	return netip.AddrFrom4([4]byte{198, byte(18 + v>>16&1), byte(v >> 8), byte(v)})
}

// take6 returns the IPv6 companion of the last v4 allocation, so every
// nameserver is dual-stacked like the real root and gTLD servers.
func (a *addrAlloc) take6() netip.Addr {
	v := a.next
	return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0x53, 0, 0,
		0, 0, 0, 0, byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Build synthesizes a hierarchy covering every SLD origin in slds
// (e.g. "example.com.", "foo.org."). TLD zones are derived from the SLD
// parents; the root delegates every TLD.
func Build(slds []string, opts Options) (*Hierarchy, error) {
	opts.setDefaults()
	h := &Hierarchy{
		TLDs:    make(map[string]*zone.Zone),
		SLDs:    make(map[string]*zone.Zone),
		NSAddrs: make(map[string][]netip.Addr),
	}
	alloc := &addrAlloc{}

	// Root zone with its server set.
	h.Root = zone.New(".")
	rootNS := make([]string, opts.RootServers)
	if err := h.Root.Add(dnswire.RR{Name: ".", Class: dnswire.ClassINET, TTL: 86400, Data: dnswire.SOA{
		MName: "a.root-servers.net.", RName: "nstld.test.", Serial: 2026070500,
		Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400}}); err != nil {
		return nil, err
	}
	for i := 0; i < opts.RootServers; i++ {
		host := fmt.Sprintf("%c.root-servers.net.", 'a'+i)
		rootNS[i] = host
		addr := alloc.take()
		h.NSAddrs["."] = append(h.NSAddrs["."], addr)
		if err := h.Root.Add(dnswire.RR{Name: ".", Class: dnswire.ClassINET, TTL: 518400, Data: dnswire.NS{Host: host}}); err != nil {
			return nil, err
		}
		if err := h.Root.Add(dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: 518400, Data: dnswire.A{Addr: addr}}); err != nil {
			return nil, err
		}
		v6 := alloc.take6()
		h.NSAddrs["."] = append(h.NSAddrs["."], v6)
		if err := h.Root.Add(dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: 518400, Data: dnswire.AAAA{Addr: v6}}); err != nil {
			return nil, err
		}
	}

	// Collect TLDs from the SLD list, deterministically ordered.
	tldSet := map[string]bool{}
	for _, sld := range slds {
		sld = dnswire.CanonicalName(sld)
		if dnswire.CountLabels(sld) < 2 {
			return nil, fmt.Errorf("hierarchy: %q is not a second-level domain", sld)
		}
		tldSet[dnswire.ParentName(sld)] = true
	}
	tlds := make([]string, 0, len(tldSet))
	for t := range tldSet {
		tlds = append(tlds, t)
	}
	sort.Strings(tlds)

	// TLD zones, delegated from the root with glue.
	for _, tld := range tlds {
		z := zone.New(tld)
		base := strings.TrimSuffix(tld, ".")
		if err := z.Add(dnswire.RR{Name: tld, Class: dnswire.ClassINET, TTL: opts.TTL, Data: dnswire.SOA{
			MName: "a.gtld." + tld, RName: "nstld.test.", Serial: 1,
			Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 900}}); err != nil {
			return nil, err
		}
		for i := 0; i < opts.ServersPerZone; i++ {
			host := fmt.Sprintf("%c.gtld.%s.", 'a'+i, base)
			addr := alloc.take()
			h.NSAddrs[tld] = append(h.NSAddrs[tld], addr)
			for _, target := range []*zone.Zone{z} {
				if err := target.Add(dnswire.RR{Name: tld, Class: dnswire.ClassINET, TTL: opts.TTL, Data: dnswire.NS{Host: host}}); err != nil {
					return nil, err
				}
				if err := target.Add(dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: opts.TTL, Data: dnswire.A{Addr: addr}}); err != nil {
					return nil, err
				}
			}
			// Root-side delegation with dual-stack glue.
			v6 := alloc.take6()
			h.NSAddrs[tld] = append(h.NSAddrs[tld], v6)
			if err := h.Root.Add(dnswire.RR{Name: tld, Class: dnswire.ClassINET, TTL: 172800, Data: dnswire.NS{Host: host}}); err != nil {
				return nil, err
			}
			if err := h.Root.Add(dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: 172800, Data: dnswire.A{Addr: addr}}); err != nil {
				return nil, err
			}
			if err := h.Root.Add(dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: 172800, Data: dnswire.AAAA{Addr: v6}}); err != nil {
				return nil, err
			}
			if err := z.Add(dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: 172800, Data: dnswire.AAAA{Addr: v6}}); err != nil {
				return nil, err
			}
		}
		h.TLDs[tld] = z
	}

	// SLD zones, delegated from their TLDs.
	for _, raw := range slds {
		sld := dnswire.CanonicalName(raw)
		if _, dup := h.SLDs[sld]; dup {
			continue
		}
		tld := dnswire.ParentName(sld)
		parent := h.TLDs[tld]
		z := zone.New(sld)
		if err := z.Add(dnswire.RR{Name: sld, Class: dnswire.ClassINET, TTL: opts.TTL, Data: dnswire.SOA{
			MName: "ns1." + sld, RName: "hostmaster." + sld, Serial: 1,
			Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}}); err != nil {
			return nil, err
		}
		for i := 0; i < opts.ServersPerZone; i++ {
			host := fmt.Sprintf("ns%d.%s", i+1, sld)
			addr := alloc.take()
			h.NSAddrs[sld] = append(h.NSAddrs[sld], addr)
			if err := z.Add(dnswire.RR{Name: sld, Class: dnswire.ClassINET, TTL: opts.TTL, Data: dnswire.NS{Host: host}}); err != nil {
				return nil, err
			}
			if err := z.Add(dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: opts.TTL, Data: dnswire.A{Addr: addr}}); err != nil {
				return nil, err
			}
			// Parent-side delegation with glue (in-bailiwick).
			if err := parent.Add(dnswire.RR{Name: sld, Class: dnswire.ClassINET, TTL: opts.TTL, Data: dnswire.NS{Host: host}}); err != nil {
				return nil, err
			}
			if err := parent.Add(dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: opts.TTL, Data: dnswire.A{Addr: addr}}); err != nil {
				return nil, err
			}
		}
		// Content: apex A, www, mail, a wildcard, and a TXT.
		content := []dnswire.RR{
			{Name: sld, Class: dnswire.ClassINET, TTL: 300, Data: dnswire.A{Addr: alloc.take()}},
			{Name: "www." + sld, Class: dnswire.ClassINET, TTL: 300, Data: dnswire.A{Addr: alloc.take()}},
			{Name: "mail." + sld, Class: dnswire.ClassINET, TTL: 300, Data: dnswire.A{Addr: alloc.take()}},
			{Name: sld, Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.MX{Preference: 10, Host: "mail." + sld}},
			{Name: sld, Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.TXT{Strings: []string{"v=spf1 -all"}}},
			{Name: "*." + sld, Class: dnswire.ClassINET, TTL: 300, Data: dnswire.A{Addr: alloc.take()}},
		}
		if err := z.AddAll(content); err != nil {
			return nil, err
		}
		h.SLDs[sld] = z
	}

	if opts.Signed {
		if err := h.sign(opts); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// sign signs every zone and publishes DS records at the parents.
func (h *Hierarchy) sign(opts Options) error {
	// DS records must be added before signing the parents.
	for tld := range h.TLDs {
		ds, err := dnssec.DSFor(tld, opts.DNSSEC)
		if err != nil {
			return err
		}
		if err := h.Root.Add(dnswire.RR{Name: tld, Class: dnswire.ClassINET, TTL: 86400, Data: ds}); err != nil {
			return err
		}
	}
	for sld, z := range h.SLDs {
		_ = z
		ds, err := dnssec.DSFor(sld, opts.DNSSEC)
		if err != nil {
			return err
		}
		parent := h.TLDs[dnswire.ParentName(sld)]
		if err := parent.Add(dnswire.RR{Name: sld, Class: dnswire.ClassINET, TTL: 86400, Data: ds}); err != nil {
			return err
		}
	}
	if err := dnssec.SignZone(h.Root, opts.DNSSEC); err != nil {
		return err
	}
	for _, z := range h.TLDs {
		if err := dnssec.SignZone(z, opts.DNSSEC); err != nil {
			return err
		}
	}
	for _, z := range h.SLDs {
		if err := dnssec.SignZone(z, opts.DNSSEC); err != nil {
			return err
		}
	}
	return nil
}

// Zones returns every zone keyed by origin.
func (h *Hierarchy) Zones() map[string]*zone.Zone {
	out := map[string]*zone.Zone{".": h.Root}
	for k, v := range h.TLDs {
		out[k] = v
	}
	for k, v := range h.SLDs {
		out[k] = v
	}
	return out
}

// Views assembles the split-horizon view set for the meta-DNS-server: one
// view per zone, matched by that zone's nameserver addresses.
func (h *Hierarchy) Views() []*authserver.View {
	var views []*authserver.View
	for origin, z := range h.Zones() {
		views = append(views, &authserver.View{
			Name:    "zone-" + origin,
			Sources: append([]netip.Addr(nil), h.NSAddrs[origin]...),
			Zones:   []*zone.Zone{z},
		})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	return views
}

// Validate checks every zone's structural invariants.
func (h *Hierarchy) Validate() []error {
	var errs []error
	for _, z := range h.Zones() {
		errs = append(errs, z.Validate()...)
	}
	return errs
}
