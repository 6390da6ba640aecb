package qlog

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// blockingSink stalls every WriteBatch until released — the worst-case
// sink (a TCP peer that accepted the connection and then froze).
type blockingSink struct {
	sinkCounters
	release chan struct{}
}

func (s *blockingSink) Name() string { return "blocking" }
func (s *blockingSink) WriteBatch(evs []Event) {
	<-s.release
	s.written.Add(int64(len(evs)))
}
func (s *blockingSink) Close() error { return nil }

// TestStalledSinkNeverBlocksProducer is the load-shedding contract: with
// the collector wedged inside a stalled sink, producers keep enqueueing
// at full speed, shedding to the drop counter when the ring fills —
// never waiting. The accounting must balance exactly.
func TestStalledSinkNeverBlocksProducer(t *testing.T) {
	const emit = 10000
	sink := &blockingSink{release: make(chan struct{})}
	p := New(Config{RingSize: 64, Sinks: []Sink{sink}})
	p.Start()
	prod := p.Producer()

	start := time.Now()
	for i := 0; i < emit; i++ {
		if ev := prod.Reserve(); ev != nil {
			ev.Time = int64(i)
			prod.Commit()
		}
	}
	elapsed := time.Since(start)
	// 10k enqueues at a few stores each: even a heavily loaded CI box
	// finishes in well under a second unless something blocked.
	if elapsed > time.Second {
		t.Errorf("10k enqueues against a stalled sink took %v; producer blocked", elapsed)
	}

	st := p.Stats()
	if st.Published+st.RingDrops != emit {
		t.Errorf("published %d + ring drops %d != %d emitted", st.Published, st.RingDrops, emit)
	}
	if st.RingDrops == 0 {
		t.Error("a 64-slot ring behind a stalled sink shed nothing; test is vacuous")
	}

	close(sink.release) // un-wedge so Close's final drain completes
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// After the final drain every published event reached the sink.
	st = p.Stats()
	if st.SinkWritten != st.Published {
		t.Errorf("sink wrote %d of %d published after drain", st.SinkWritten, st.Published)
	}
}

// TestPipelineTransformAccounting runs events through a dropping
// transformer chain and checks every count lands somewhere.
func TestPipelineTransformAccounting(t *testing.T) {
	const emit = 1000
	sink := NewDiscardSink()
	p := New(Config{
		RingSize:     2048,
		Transformers: []Transformer{NewSampler(4)},
		Sinks:        []Sink{sink},
	})
	p.Start()
	prod := p.Producer()
	for i := 0; i < emit; i++ {
		ev := prod.Reserve()
		if ev == nil {
			t.Fatal("ring full with a live collector and 2048 slots")
		}
		ev.Time = int64(i)
		prod.Commit()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Published != emit || st.RingDrops != 0 {
		t.Fatalf("published=%d drops=%d, want %d/0", st.Published, st.RingDrops, emit)
	}
	if st.TransformDrops+st.SinkWritten != emit {
		t.Errorf("transform drops %d + sink written %d != %d", st.TransformDrops, st.SinkWritten, emit)
	}
	if st.SinkWritten != emit/4 {
		t.Errorf("1-in-4 sampler passed %d of %d", st.SinkWritten, emit)
	}
}

// TestPipelineCloseWithoutStart drains inline so short-lived tools that
// never started the collector still flush their events.
func TestPipelineCloseWithoutStart(t *testing.T) {
	sink := NewDiscardSink()
	p := New(Config{Sinks: []Sink{sink}})
	prod := p.Producer()
	for i := 0; i < 100; i++ {
		if ev := prod.Reserve(); ev != nil {
			ev.Time = int64(i)
			prod.Commit()
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.SinkWritten != 100 {
		t.Errorf("inline drain exported %d of 100", st.SinkWritten)
	}
	// Close is idempotent.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPipeline is the evidence behind DESIGN.md's "≥1M events/s":
// one producer pushes b.N events through ring → collector → transformers
// → sink, waiting out a full ring instead of shedding, so events/s counts
// events that reached the sink, Close's final drain included. The rings
// are deeper than the datapath default and drained in bigger batches: a
// saturated ring has producer and consumer chasing each other's cache
// lines, which datapath rings (near-empty) never see.
// `go test -run XXX -bench Pipeline ./internal/qlog/`.
func BenchmarkPipeline(b *testing.B) {
	tmpl := blockTestEvents(b, 256)
	for _, bc := range []struct {
		name string
		cfg  func(b *testing.B) Config
	}{
		{"enqueue", func(*testing.B) Config { return Config{Sinks: []Sink{NewDiscardSink()}} }},
		{"transform", func(*testing.B) Config {
			return Config{
				Transformers: []Transformer{NewTagger(time.Millisecond), NewAnonymizer("bench-key")},
				Sinks:        []Sink{NewDiscardSink()},
			}
		}},
		{"export-file", func(b *testing.B) Config {
			fs, err := NewFileSink(filepath.Join(b.TempDir(), "bench.qlog"), 256<<20, 2)
			if err != nil {
				b.Fatal(err)
			}
			return Config{Sinks: []Sink{fs}}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg(b)
			cfg.RingSize, cfg.BatchSize = 65536, 4096
			p := New(cfg)
			p.Start()
			prod := p.Producer()
			b.ResetTimer()
			for i := 0; i < b.N; {
				ev := prod.Reserve()
				if ev == nil {
					runtime.Gosched() // ring full: let the collector run
					continue
				}
				*ev = tmpl[i%len(tmpl)]
				prod.Commit()
				i++
			}
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st := p.Stats(); st.SinkWritten != int64(b.N) {
				b.Fatalf("sink wrote %d of %d events (%d filtered, %d sink-dropped)", st.SinkWritten, b.N, st.TransformDrops, st.SinkDropped)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
