// Package mutate implements the query mutator of §2.5: arbitrary,
// streaming manipulation of trace entries so one captured trace can drive
// many "what-if" experiments — all queries over TCP or TLS (§5.2), all
// queries with the DO bit set (§5.1), unique-name tagging for replay
// validation (§4.2), time scaling, and filtering. Mutations compose into a
// Pipeline that wraps any trace.Reader, so they can run ahead of time
// (text → binary pre-processing) or live with the replay.
package mutate

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/trace"
)

// ErrDrop signals that a mutation filtered the entry out of the stream.
var ErrDrop = fmt.Errorf("mutate: entry dropped")

// Mutation transforms one entry in place. Returning ErrDrop removes the
// entry; any other error aborts the stream.
type Mutation func(*trace.Entry) error

// Pipeline composes mutations in order.
type Pipeline struct {
	mutations []Mutation
}

// NewPipeline builds a pipeline from mutations applied in order.
func NewPipeline(mutations ...Mutation) *Pipeline {
	return &Pipeline{mutations: mutations}
}

// Apply runs the pipeline on one entry.
func (p *Pipeline) Apply(e *trace.Entry) error {
	for _, m := range p.mutations {
		if err := m(e); err != nil {
			return err
		}
	}
	return nil
}

// Reader wraps r so entries stream through the pipeline, dropping
// filtered entries transparently.
func (p *Pipeline) Reader(r trace.Reader) trace.Reader {
	return &pipelineReader{p: p, r: r}
}

type pipelineReader struct {
	p *Pipeline
	r trace.Reader
}

func (pr *pipelineReader) Next() (trace.Entry, error) {
	for {
		e, err := pr.r.Next()
		if err != nil {
			return trace.Entry{}, err
		}
		e = e.Clone() // mutations must not corrupt shared buffers
		if err := pr.p.Apply(&e); err != nil {
			if err == ErrDrop {
				continue
			}
			return trace.Entry{}, err
		}
		return e, nil
	}
}

// EditMessage returns a mutation that unpacks the DNS message, applies
// edit, and repacks. It is the escape hatch for arbitrary edits.
func EditMessage(edit func(*dnswire.Message) error) Mutation {
	return func(e *trace.Entry) error {
		var m dnswire.Message
		if err := m.Unpack(e.Message); err != nil {
			return fmt.Errorf("mutate: %w", err)
		}
		if err := edit(&m); err != nil {
			return err
		}
		wire, err := m.Pack(nil)
		if err != nil {
			return err
		}
		e.Message = wire
		return nil
	}
}

// SetProtocol forces every entry onto proto — the paper's headline
// "what if all DNS ran over TCP/TLS" mutation.
func SetProtocol(proto trace.Protocol) Mutation {
	return func(e *trace.Entry) error {
		e.Protocol = proto
		return nil
	}
}

// SetProtocolFraction moves a random fraction of entries onto proto,
// leaving the rest untouched (e.g. reproduce the original 3% TCP mix).
func SetProtocolFraction(proto trace.Protocol, fraction float64, rng *rand.Rand) Mutation {
	return func(e *trace.Entry) error {
		if rng.Float64() < fraction {
			e.Protocol = proto
		}
		return nil
	}
}

// SetDO forces the EDNS DO bit on every query, adding an OPT record when
// missing (§5.1's 72.3% → 100% DNSSEC experiment).
func SetDO(on bool) Mutation {
	return EditMessage(func(m *dnswire.Message) error {
		if m.Edns == nil {
			if !on {
				return nil
			}
			m.Edns = &dnswire.EDNS{UDPSize: dnswire.DefaultEDNSSize}
		}
		m.Edns.DO = on
		return nil
	})
}

// SetDOFraction sets the DO bit on a random fraction of queries and
// clears it on the rest, producing an exact traffic mix.
func SetDOFraction(fraction float64, rng *rand.Rand) Mutation {
	return func(e *trace.Entry) error {
		on := rng.Float64() < fraction
		return SetDO(on)(e)
	}
}

// PrependUnique tags every query name with a distinct prefix label
// ("q<serial>.<prefix>."), the §4.2 trick that lets the evaluator match
// each replayed query to its capture afterwards.
func PrependUnique(prefix string) Mutation {
	serial := 0
	return EditMessage(func(m *dnswire.Message) error {
		if len(m.Question) != 1 {
			return fmt.Errorf("mutate: cannot tag message with %d questions", len(m.Question))
		}
		serial++
		label := fmt.Sprintf("%s%d", prefix, serial)
		if len(label) > 63 {
			return fmt.Errorf("mutate: unique label %q too long", label)
		}
		base := dnswire.CanonicalName(m.Question[0].Name)
		name := label + "." + base
		if base == "." {
			name = label + "." // tagging a root-apex query
		}
		name = dnswire.CanonicalName(name)
		if !dnswire.ValidName(name) {
			return fmt.Errorf("mutate: tagged name %q invalid", name)
		}
		m.Question[0].Name = name
		return nil
	})
}

// RewriteQueryName replaces every query name, e.g. to point all load at a
// wildcard zone for throughput tests.
func RewriteQueryName(name string) Mutation {
	name = dnswire.CanonicalName(name)
	return EditMessage(func(m *dnswire.Message) error {
		for i := range m.Question {
			m.Question[i].Name = name
		}
		return nil
	})
}

// RewriteDst points every entry at the testbed server address.
func RewriteDst(dst netip.AddrPort) Mutation {
	return func(e *trace.Entry) error {
		e.Dst = dst
		return nil
	}
}

// TimeScale multiplies every entry's offset from the first entry by
// factor (<1 speeds the trace up, >1 slows it down).
func TimeScale(factor float64) Mutation {
	var base time.Time
	return func(e *trace.Entry) error {
		if base.IsZero() {
			base = e.Time
			return nil
		}
		offset := e.Time.Sub(base)
		e.Time = base.Add(time.Duration(float64(offset) * factor))
		return nil
	}
}

// TimeShift displaces every timestamp by delta.
func TimeShift(delta time.Duration) Mutation {
	return func(e *trace.Entry) error {
		e.Time = e.Time.Add(delta)
		return nil
	}
}

// QueriesOnly drops responses (QR=1), keeping the query stream a replay
// needs.
func QueriesOnly() Mutation {
	return func(e *trace.Entry) error {
		if len(e.Message) < 3 {
			return ErrDrop
		}
		if e.Message[2]&0x80 != 0 {
			return ErrDrop
		}
		return nil
	}
}

// SampleFraction keeps each entry with probability fraction.
func SampleFraction(fraction float64, rng *rand.Rand) Mutation {
	return func(e *trace.Entry) error {
		if rng.Float64() >= fraction {
			return ErrDrop
		}
		return nil
	}
}

// Limit truncates the stream after n entries.
func Limit(n int) Mutation {
	seen := 0
	return func(e *trace.Entry) error {
		seen++
		if seen > n {
			return ErrDrop
		}
		return nil
	}
}
