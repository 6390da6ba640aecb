package authserver

import (
	"bytes"
	"net/netip"
	"testing"

	"ldplayer/internal/dnswire"
)

// FuzzRespondHitVsMiss is the differential check on the one respond path:
// arbitrary query bytes, from each hierarchy view and from an unknown
// source, over each transport, are answered twice by one shard (a miss
// that fills its cache, then whatever the cache makes of the repeat),
// twice by a shard whose cache holds only three entries (so eviction,
// the ring's wrap and its growth run under the fuzzer) and once by a
// shard of an engine with the cache off. The five responses must be the
// same bytes — ID, RD and the question's 0x20 case are the query's own
// on every path, so nothing is masked — and no input may panic.
func FuzzRespondHitVsMiss(f *testing.F) {
	for i, name := range []string{".", "com.", "www.example.com.", "nope.example.com.", "junk."} {
		for _, qtype := range []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeANY} {
			for do := -1; do <= 1; do++ {
				for src := uint8(0); src < 4; src++ {
					f.Add(missQuery(f, name, qtype, do), src, uint8(i))
				}
			}
		}
	}
	mixed := missQuery(f, "www.example.com.", dnswire.TypeA, 1)
	copy(mixed[13:], "wWw")
	f.Add(mixed, uint8(2), uint8(0))
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 0xFF, 0xC0, 'x', 3, 'c', 'o', 'm', 0, 0, 1, 0, 1}, uint8(2), uint8(1))
	f.Add([]byte{1, 2, 3}, uint8(0), uint8(0))

	cold, warm, tiny := hierarchyEngine(f), hierarchyEngine(f), hierarchyEngine(f)
	cold.SetResponseCacheCap(0)
	tiny.SetResponseCacheCap(3)
	coldSh, warmSh, tinySh := cold.NewShard(), warm.NewShard(), tiny.NewShard()
	sources := []netip.Addr{rootNSAddr, comNSAddr, exNSAddr, clientAddr}

	f.Fuzz(func(t *testing.T, query []byte, srcSel, trSel uint8) {
		src := sources[int(srcSel)%len(sources)]
		tr := Transport(trSel % 3)
		var got [5][]byte
		var errs [5]error
		for i, sh := range []*EngineShard{coldSh, warmSh, warmSh, tinySh, tinySh} {
			got[i], errs[i] = sh.AppendRespond(nil, query, src, tr)
		}
		for i := 1; i < len(got); i++ {
			if (errs[i] == nil) != (errs[0] == nil) || !bytes.Equal(got[i], got[0]) {
				t.Fatalf("query %x from %v over %v:\n cache off   %x (%v)\n miss        %x (%v)\n repeat      %x (%v)\n cap-3 miss  %x (%v)\n cap-3 again %x (%v)",
					query, src, tr, got[0], errs[0], got[1], errs[1], got[2], errs[2], got[3], errs[3], got[4], errs[4])
			}
		}
	})
}
