package dnswire

import "testing"

// TestPackPresizedAllocs pins Pack at zero allocations when appending
// into a buffer with sufficient capacity: compression state is pooled
// and suffix keys are substrings of the names being packed, so the
// encode path must not produce garbage.
func TestPackPresizedAllocs(t *testing.T) {
	m := benchResponse()
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = m.Pack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Pack into presized buffer allocs/op = %.2f, want 0", allocs)
	}
}

// TestUnpackReuseAllocs pins steady-state Unpack into a reused Message:
// section slices are reused, so per-message allocations are limited to
// the decoded names and rdata values themselves.
func TestUnpackReuseAllocs(t *testing.T) {
	wire, err := benchResponse().Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := new(Message)
	base := testing.AllocsPerRun(1000, func() {
		if err := m.Unpack(wire); err != nil {
			t.Fatal(err)
		}
	})
	// 6 RRs + OPT + names: the exact number is an implementation detail,
	// but reuse must keep it well under one-allocation-per-byte churn.
	// The guard catches section-slice or header-level regressions.
	if base > 25 {
		t.Errorf("Unpack reuse allocs/op = %.2f, want ≤ 25", base)
	}
}

// TestUnpackQueryReuseAllocs pins what a server pays to decode a query
// into a reused Message: nothing — not for the qname (copied into the
// Message's name chunk, whose refills AllocsPerRun's per-run floor
// amortizes away), not for the OPT record (decoded into storage the
// Message owns), not for its options, not for the root name.
func TestUnpackQueryReuseAllocs(t *testing.T) {
	q := NewQuery(1, "www.example.com.", TypeA)
	q.Edns = &EDNS{UDPSize: 4096, DO: true, Options: []EDNSOption{{Code: 10, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}}
	wire, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewQuery(2, ".", TypeNS).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	for _, w := range [][]byte{wire, root} {
		if err := m.Unpack(w); err != nil { // size the section slices
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := m.Unpack(w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("Unpack of %q into a reused Message allocs/op = %.2f, want 0", m.Question[0].Name, allocs)
		}
	}
}

// TestUnpackReusedEDNS: the OPT storage is per Message and rewritten by
// each Unpack — a second message's options replace the first's, and a
// message without an OPT leaves Edns nil.
func TestUnpackReusedEDNS(t *testing.T) {
	pack := func(opts ...EDNSOption) []byte {
		q := NewQuery(1, "example.com.", TypeA)
		q.Edns = &EDNS{UDPSize: 1232, Options: opts}
		wire, err := q.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	var m Message
	if err := m.Unpack(pack(EDNSOption{Code: 10, Data: []byte("cookie!!")}, EDNSOption{Code: 8, Data: []byte{0, 1, 24, 0, 192, 0, 2}})); err != nil {
		t.Fatal(err)
	}
	if len(m.Edns.Options) != 2 || string(m.Edns.Options[0].Data) != "cookie!!" || m.Edns.Options[1].Code != 8 {
		t.Fatalf("options = %+v", m.Edns.Options)
	}
	if err := m.Unpack(pack(EDNSOption{Code: 12, Data: []byte{0, 0}})); err != nil {
		t.Fatal(err)
	}
	if len(m.Edns.Options) != 1 || m.Edns.Options[0].Code != 12 || len(m.Edns.Options[0].Data) != 2 || m.Edns.UDPSize != 1232 {
		t.Fatalf("second unpack: edns = %+v", m.Edns)
	}
	if err := m.Unpack(pack()); err != nil {
		t.Fatal(err)
	}
	if m.Edns == nil || m.Edns.Options != nil {
		t.Fatalf("third unpack: edns = %+v", m.Edns)
	}
	wire, err := NewQuery(3, "example.com.", TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Unpack(wire); err != nil || m.Edns != nil {
		t.Fatalf("no OPT: edns = %+v, err %v", m.Edns, err)
	}
}
