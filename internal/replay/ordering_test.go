package replay

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// TestSendRecordedBeforeResponse is the regression test for the
// send/record ordering bug: sendBatch used to make the syscall first and
// record the sends after it, so on loopback a response could be settled
// before its own send existed — OnResponse ran ahead of OnSend, and with
// retransmission on the early answer found nothing pending, was taken for
// unsolicited, and its query was re-sent and answered a second time.
func TestSendRecordedBeforeResponse(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name    string
		retries int
	}{
		{"fire-and-forget", 0},
		{"retransmitting", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _, _ := scriptedUDPServer(t, func(int64) int { return 0 })
			var sent [n]atomic.Bool
			var early atomic.Int64
			id := func(msg []byte) int { return int(msg[0])<<8 | int(msg[1]) }
			en, err := New(Config{
				UDPTarget:  addr,
				UDPRetries: tc.retries,
				// Far longer than any loopback round trip, short enough
				// that a wrongly re-armed query is re-sent inside the run.
				UDPRetryTimeout: 200 * time.Millisecond,
				DrainTimeout:    5 * time.Second,
				OnSend: func(e *trace.Entry, _ time.Time, _ time.Duration) {
					sent[id(e.Message)].Store(true)
				},
				OnResponse: func(msg []byte, _ time.Time) {
					if !sent[id(msg)].Load() {
						early.Add(1)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// makeTrace numbers the queries 0..n-1 in their DNS IDs.
			entries := makeTrace(t, n, 8, 200*time.Microsecond, trace.UDP)
			st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
			if err != nil {
				t.Fatal(err)
			}
			if got := early.Load(); got != 0 {
				t.Errorf("%d of %d responses were observed before their sends", got, n)
			}
			if st.Sent != n || st.Responses != n {
				t.Errorf("sent %d, responses %d, want %d each", st.Sent, st.Responses, n)
			}
			if st.UDPRetransmits != 0 || st.Duplicates != 0 {
				t.Errorf("lossless loopback: %d retransmissions, %d duplicates", st.UDPRetransmits, st.Duplicates)
			}
		})
	}
}
