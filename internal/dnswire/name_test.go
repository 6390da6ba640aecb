package dnswire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"example.com", "example.com."},
		{"example.com.", "example.com."},
		{"WWW.Example.COM", "www.example.com."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSplitLabels(t *testing.T) {
	if got := SplitLabels("."); got != nil {
		t.Errorf("SplitLabels(.) = %v, want nil", got)
	}
	got := SplitLabels("www.example.com.")
	want := []string{"www", "example", "com"}
	if len(got) != len(want) {
		t.Fatalf("SplitLabels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestParentName(t *testing.T) {
	cases := []struct{ in, want string }{
		{".", "."},
		{"com.", "."},
		{"example.com.", "com."},
		{"a.b.example.com.", "b.example.com."},
	}
	for _, c := range cases {
		if got := ParentName(c.in); got != c.want {
			t.Errorf("ParentName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"www.example.com.", "example.com.", true},
		{"example.com.", "example.com.", true},
		{"example.com.", ".", true},
		{"notexample.com.", "example.com.", false},
		{"com.", "example.com.", false},
		{"xexample.com.", "example.com.", false},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestNameRoundTrip(t *testing.T) {
	names := []string{".", "com.", "example.com.", "www.example.com.",
		"a.very.deep.chain.of.labels.example.org.",
		strings.Repeat("a", 63) + ".example.com."}
	for _, name := range names {
		buf, err := appendName(nil, name, nil, 0)
		if err != nil {
			t.Fatalf("appendName(%q): %v", name, err)
		}
		got, next, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", name, err)
		}
		if got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
		if next != len(buf) {
			t.Errorf("next offset = %d, want %d", next, len(buf))
		}
	}
}

func TestNameEncodingErrors(t *testing.T) {
	if _, err := appendName(nil, strings.Repeat("a", 64)+".com.", nil, 0); err != ErrLabelTooLong {
		t.Errorf("long label: err = %v, want ErrLabelTooLong", err)
	}
	long := strings.Repeat("abcdefg.", 40) // 320 octets
	if _, err := appendName(nil, long, nil, 0); err != ErrNameTooLong {
		t.Errorf("long name: err = %v, want ErrNameTooLong", err)
	}
	if _, err := appendName(nil, "a..com.", nil, 0); err != ErrEmptyLabel {
		t.Errorf("empty label: err = %v, want ErrEmptyLabel", err)
	}
}

func TestNameCompression(t *testing.T) {
	cmp := &compressor{}
	buf, err := appendName(nil, "www.example.com.", cmp, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	// Second name shares the example.com. suffix: should compress to
	// "mail" label + 2-byte pointer.
	buf, err = appendName(buf, "mail.example.com.", cmp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(buf)-first, 1+4+2; got != want {
		t.Errorf("compressed encoding is %d octets, want %d", got, want)
	}
	name, _, err := unpackName(buf, first)
	if err != nil {
		t.Fatal(err)
	}
	if name != "mail.example.com." {
		t.Errorf("decompressed %q", name)
	}
	// Exact repeat should be a bare pointer.
	prev := len(buf)
	buf, err = appendName(buf, "www.example.com.", cmp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)-prev != 2 {
		t.Errorf("exact repeat encoded in %d octets, want 2", len(buf)-prev)
	}
}

func TestUnpackNamePointerLoop(t *testing.T) {
	// A pointer to itself (offset 0 pointing at offset 0).
	msg := []byte{0xC0, 0x00}
	if _, _, err := unpackName(msg, 0); err == nil {
		t.Error("self pointer: expected error")
	}
	// Two pointers pointing at each other.
	msg = []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := unpackName(msg, 2); err == nil {
		t.Error("pointer cycle: expected error")
	}
}

func TestUnpackNameTruncation(t *testing.T) {
	cases := [][]byte{
		{},                 // no bytes at all
		{3, 'a', 'b'},      // label runs past end
		{0xC0},             // pointer missing second byte
		{3, 'c', 'o', 'm'}, // missing terminator
		{0x80, 'x'},        // reserved label type
	}
	for i, msg := range cases {
		if _, _, err := unpackName(msg, 0); err == nil {
			t.Errorf("case %d: expected error for % x", i, msg)
		}
	}
}

func TestValidName(t *testing.T) {
	if !ValidName("www.example.com") {
		t.Error("www.example.com should be valid")
	}
	if ValidName("a..b.com") {
		t.Error("empty label should be invalid")
	}
	if ValidName(strings.Repeat("a", 64) + ".com") {
		t.Error("64-octet label should be invalid")
	}
}

func TestCompareNames(t *testing.T) {
	ordered := []string{".", "com.", "example.com.", "a.example.com.", "z.example.com.", "org."}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := CompareNames(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("CompareNames(%q, %q) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestAppendNameRootEncoding(t *testing.T) {
	buf, err := appendName(nil, ".", &compressor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0}) {
		t.Errorf("root encodes as % x, want 00", buf)
	}
}

// TestCompareNamesMatchesLabelSplit checks the in-place comparison
// against the definition — compare SplitLabels right to left — on names
// drawn to collide: shared suffixes, prefix labels, empty labels, case.
func TestCompareNamesMatchesLabelSplit(t *testing.T) {
	bySplit := func(a, b string) int {
		la, lb := SplitLabels(a), SplitLabels(b)
		for i := 1; i <= len(la) && i <= len(lb); i++ {
			if c := strings.Compare(la[len(la)-i], lb[len(lb)-i]); c != 0 {
				return c
			}
		}
		return len(la) - len(lb)
	}
	sign := func(n int) int {
		switch {
		case n < 0:
			return -1
		case n > 0:
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(1))
	labels := []string{"a", "ab", "b", "A", "", "*", "-", "z9"}
	name := func() string {
		var sb strings.Builder
		for i, n := 0, rng.Intn(4); i < n; i++ {
			sb.WriteString(labels[rng.Intn(len(labels))])
			sb.WriteByte('.')
		}
		return sb.String()
	}
	for i := 0; i < 5000; i++ {
		a, b := name(), name()
		if got, want := CompareNames(a, b), sign(bySplit(a, b)); got != want {
			t.Fatalf("CompareNames(%q, %q) = %d, label-split order says %d", a, b, got, want)
		}
	}
}

// TestCanonicalNameFoldsASCIIOnly: DNS case folding is ASCII-only (RFC
// 4343). Other octets — UTF-8 capitals, bytes that are not UTF-8 at all —
// pass through, so a name survives decode → canonicalize → encode with
// its length intact.
func TestCanonicalNameFoldsASCIIOnly(t *testing.T) {
	for in, want := range map[string]string{
		"ÉCOLE.Example":      "École.example.",
		"\xff\xfeX.":         "\xff\xfex.",
		"already.canonical.": "already.canonical.",
	} {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
	wire := []byte{2, 0xFF, 'Q', 0}
	name, next, err := unpackName(wire, 0)
	if err != nil || name != "\xffq." || next != len(wire) {
		t.Fatalf("unpackName = %q, %d, %v", name, next, err)
	}
	back, err := appendName(nil, name, nil, 0)
	if err != nil || len(back) != len(wire) {
		t.Errorf("re-encoded %q as %x, want the original %d octets", name, back, len(wire))
	}
	if allocs := testing.AllocsPerRun(100, func() { CanonicalName("already.canonical.") }); allocs != 0 {
		t.Errorf("CanonicalName of a canonical name allocates %.1f times", allocs)
	}
}
