package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpiservice/internal/packet"
)

// batchTransport is a scripted Transport: each ReadBatch hands over one
// batch of datagrams the test sent on in, all at once, and each
// WriteBatch call is recorded (deep-copied) so a test can count calls
// and datagrams.
type batchTransport struct {
	in        chan []Datagram
	done      chan struct{}
	closeOnce sync.Once

	mu     sync.Mutex
	writes [][]Datagram
}

func newBatchTransport() *batchTransport {
	return &batchTransport{in: make(chan []Datagram), done: make(chan struct{})}
}

func (b *batchTransport) ReadBatch(dgs []Datagram) (int, error) {
	select {
	case batch := <-b.in:
		for i, d := range batch {
			dgs[i].Addr = d.Addr
			dgs[i].Buf = append(dgs[i].Buf[:0], d.Buf...)
		}
		return len(batch), nil
	case <-b.done:
		return 0, ErrClosed
	}
}

func (b *batchTransport) WriteBatch(dgs []Datagram) (int, error) {
	cp := make([]Datagram, len(dgs))
	for i, d := range dgs {
		cp[i] = Datagram{Addr: d.Addr, Buf: append([]byte(nil), d.Buf...)}
	}
	b.mu.Lock()
	b.writes = append(b.writes, cp)
	b.mu.Unlock()
	return len(dgs), nil
}

func (b *batchTransport) LocalAddr() Addr { return Addr{Name: "server"} }

func (b *batchTransport) Close() error {
	b.closeOnce.Do(func() { close(b.done) })
	return nil
}

// takeWrites returns and clears the recorded WriteBatch calls.
func (b *batchTransport) takeWrites() [][]Datagram {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.writes
	b.writes = nil
	return w
}

// TestServerFlushesOncePerBatch hands the server one receive batch of N
// single-TData datagrams and checks that the replies leave in exactly
// one WriteBatch call carrying all N results in seq order plus at most
// one ack, and that the end-of-batch hook runs once per batch.
func TestServerFlushesOncePerBatch(t *testing.T) {
	const n = 24
	// A long RTO keeps the ticker from retransmitting inside the test.
	cfg := Config{RTOBase: 10 * time.Second, JitterSeed: 7}
	tr := newBatchTransport()
	srv := NewServer(tr, testKey, cfg, nil)
	srv.OnData(func(s *Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte) {
		if err := s.SendResult(seq, payload); err != nil {
			t.Errorf("SendResult: %v", err)
		}
	})
	// The hook runs under the server lock, so it must never block: the
	// buffer holds one signal for each of the test's two batches, with
	// room to spare so an extra run shows up as a count, not a hang.
	hooks := make(chan struct{}, 4)
	srv.OnBatch(func() { hooks <- struct{}{} })
	srv.Start()
	t.Cleanup(func() { srv.Close() })

	peer := Addr{Name: "client"}
	token := IssueToken(testKey, 5)
	waitBatch := func() {
		t.Helper()
		select {
		case <-hooks:
		case <-time.After(5 * time.Second):
			t.Fatal("end-of-batch hook did not run")
		}
	}

	tr.in <- []Datagram{{Addr: peer, Buf: AppendFrame(nil, Header{Type: THello, Token: token}, []byte("tg"))}}
	waitBatch()
	tr.takeWrites()

	batch := make([]Datagram, n)
	for i := range batch {
		body := AppendData(nil, 1, testTuple, []byte(fmt.Sprintf("pkt-%02d", i)))
		batch[i] = Datagram{Addr: peer, Buf: AppendFrame(nil, Header{Type: TData, Token: token, Seq: uint32(i + 1)}, body)}
	}
	tr.in <- batch
	waitBatch()
	if extra := len(hooks); extra != 0 {
		t.Fatalf("hook ran %d extra times for one batch", extra)
	}

	writes := tr.takeWrites()
	if len(writes) != 1 {
		t.Fatalf("WriteBatch calls = %d, want 1 per receive batch", len(writes))
	}
	var results, acks int
	lastSeq := uint32(0)
	for _, dg := range writes[0] {
		if dg.Addr != peer {
			t.Fatalf("datagram to %v, want %v", dg.Addr, peer)
		}
		for buf := dg.Buf; len(buf) > 0; {
			h, payload, rest, err := NextFrame(buf)
			if err != nil {
				t.Fatal(err)
			}
			buf = rest
			switch h.Type {
			case TResult:
				if h.Seq <= lastSeq {
					t.Fatalf("result seq %d after %d", h.Seq, lastSeq)
				}
				lastSeq = h.Seq
				dataSeq := binary.BigEndian.Uint32(payload[:ResultHdrLen])
				want := fmt.Sprintf("pkt-%02d", results)
				if dataSeq != uint32(results+1) || string(payload[ResultHdrLen:]) != want {
					t.Fatalf("result %d answers seq %d with %q", results, dataSeq, payload[ResultHdrLen:])
				}
				results++
			case TAck:
				acks++
				if h.Ack != n+1 {
					t.Fatalf("ack covers %d, want %d", h.Ack, n+1)
				}
			default:
				t.Fatalf("unexpected frame type %v", h.Type)
			}
		}
	}
	if results != n || acks > 1 {
		t.Fatalf("one batch produced %d results and %d acks, want %d and at most 1", results, acks, n)
	}
	if len(writes[0]) >= n {
		t.Fatalf("%d results went out in %d datagrams: not coalesced", n, len(writes[0]))
	}
}

// TestConnWindowFullFlushes fills a small send window with verdicts
// that are still staged: the sender must push them out before waiting
// for acks, so the next verdict goes out long before the retransmit
// tick (RTOBase/4) would flush them.
func TestConnWindowFullFlushes(t *testing.T) {
	cfg := Config{Window: 4, RTOBase: 10 * time.Second, JitterSeed: 7}
	st, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, testKey, cfg, nil)
	srv.OnVerdict(func(*Session, uint16, packet.FiveTuple, []byte) {})
	srv.Start()
	ct, err := DialUDP(st.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(ct, IssueToken(testKey, 4), "inst-1", cfg, nil)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := c.SendVerdict(1, testTuple, []byte{byte(i)}); err != nil {
			t.Fatalf("SendVerdict %d: %v", i, err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("fifth verdict waited %v on a full window", d)
	}
}
