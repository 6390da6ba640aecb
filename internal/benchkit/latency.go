package benchkit

import (
	"hash/maphash"
)

// Matcher maps a response back to the trace entry that caused it.
// OnResponse carries only the message, so the key is (DNS ID, question
// bytes), which the server echoes unchanged. The table is built at set-up
// and only read during the run, so the callbacks need no lock.
//
// Keys shared by several entries (many light sources asking ". NS" with
// ID 1) cannot be attributed and are excluded; Matched reports the share
// that can.
type Matcher struct {
	seed maphash.Seed
	idx  map[uint64]int32
	n    int
	lost int
}

const (
	matchCollided = -1
	matchUnknown  = -2
)

// NewMatcher sizes a matcher for n entries.
func NewMatcher(n int) *Matcher {
	return &Matcher{seed: maphash.MakeSeed(), idx: make(map[uint64]int32, n)}
}

// questionEnd returns the offset just past the question section's first
// entry (name, type, class), or 0 when msg is too short to hold one.
func questionEnd(msg []byte) int {
	for off := 12; off < len(msg); {
		l := int(msg[off])
		if l == 0 {
			if off+5 > len(msg) {
				return 0
			}
			return off + 5
		}
		if l&0xC0 != 0 {
			return 0 // a question name is never compressed
		}
		off += 1 + l
	}
	return 0
}

func (m *Matcher) key(msg []byte) (uint64, bool) {
	end := questionEnd(msg)
	if end == 0 {
		return 0, false
	}
	var h maphash.Hash
	h.SetSeed(m.seed)
	h.Write(msg[:2])
	h.Write(msg[12:end])
	return h.Sum64(), true
}

// Add registers entry i's query. Set-up only.
func (m *Matcher) Add(i int, query []byte) {
	m.n++
	k, ok := m.key(query)
	if !ok {
		m.lost++
		return
	}
	switch prev, dup := m.idx[k]; {
	case !dup:
		m.idx[k] = int32(i)
	case prev == matchCollided:
		m.lost++
	default:
		m.idx[k] = matchCollided
		m.lost += 2
	}
}

// Lookup returns the entry index for a response, matchCollided when its
// key belongs to several entries, or matchUnknown when no entry of the
// trace could have caused it.
func (m *Matcher) Lookup(resp []byte) int32 {
	k, ok := m.key(resp)
	if !ok {
		return matchUnknown
	}
	if i, ok := m.idx[k]; ok {
		return i
	}
	return matchUnknown
}

// Matched is the share of entries with a key of their own.
func (m *Matcher) Matched() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.n-m.lost) / float64(m.n)
}

// stamps are the traced run's per-query times in nanoseconds since the
// run's base, indexed by trace position; 0 means not recorded. Each
// callback writes its own array, and latency is computed after the run,
// so the result cannot depend on which callback fired first — today
// OnSend fires after sendmmsg returns and a loopback response can beat
// it.
type stamps struct {
	due, sent, recv []int64
}

func newStamps(n int) *stamps {
	return &stamps{due: make([]int64, n), sent: make([]int64, n), recv: make([]int64, n)}
}

// spans folds the stamps of entries [from, n) into the two per-query
// spans: sched (due → sent), rtt (sent → received), and their sum,
// latency (due → received). Entries missing a stamp contribute to the
// spans they do have.
func (s *stamps) spans(from int) (sched, rtt, latency []int64) {
	for i := from; i < len(s.sent); i++ {
		if s.sent[i] == 0 {
			continue
		}
		if s.due[i] != 0 {
			d := s.sent[i] - s.due[i]
			if d < 0 {
				d = -d
			}
			sched = append(sched, d)
		}
		if s.recv[i] != 0 {
			rtt = append(rtt, s.recv[i]-s.sent[i])
			if s.due[i] != 0 {
				latency = append(latency, s.recv[i]-s.due[i])
			}
		}
	}
	sortInt64(sched)
	sortInt64(rtt)
	sortInt64(latency)
	return sched, rtt, latency
}
