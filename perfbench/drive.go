package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dpiservice/internal/trace"
)

// ringSize bounds the packets awaiting a result. The wire window keeps
// at most a few hundred unacknowledged, and results return in send
// order, so a slot is never reused before its result is back.
const ringSize = 1 << 16

// slot is one packet awaiting its result.
type slot struct {
	seq   uint32
	pkt   int32 // payload index
	start int64 // start stamp, ns on the generator's monotonic clock
	// Traced packets only: in-band trace context and the generator's
	// own send span on the wall clock the daemons' spans use.
	traced            bool
	traceID           uint64
	pktIdx            uint32
	sendWall, sendDur int64
}

// tracedPkt is a traced packet whose result came back.
type tracedPkt struct {
	traceID           uint64
	pktIdx            uint32
	sendWall, sendDur int64
	arriveWall        int64
	nonEmpty          bool
}

// phase accumulates one driving interval. Fields written by the result
// callback are read by the sending goroutine only after got reaches
// sent, or after the session was closed.
type phase struct {
	sent     int64
	got      atomic.Int64
	bad      int64 // results that differ from the reference
	nonEmpty int64
	good     int64 // payload bytes with a correct report
	lat      []int64
	// winStart[k] indexes the first latency sample that arrived in
	// the phase's k-th second.
	winStart []int
	sendNs   int64
	traced   []tracedPkt

	firstSend, lastArrive int64
	wall                  time.Duration
}

// windowed is the median over the phase's first n whole seconds of
// each second's q-quantile of result latency. Unlike one quantile over
// the whole phase, it does not swing with a single stall of the host
// or of the instance's config refresh, which recurs every 5 s and
// touches under 1% of packets.
func (p *phase) windowed(n int, q float64) float64 {
	return median(p.perSecond(n, q))
}

// perSecond is the q-quantile of result latency in each of the phase's
// first n whole seconds.
func (p *phase) perSecond(n int, q float64) []float64 {
	var per []float64
	for k := 0; k < n && k < len(p.winStart); k++ {
		end := len(p.lat)
		if k+1 < len(p.winStart) {
			end = p.winStart[k+1]
		}
		if win := p.lat[p.winStart[k]:end]; len(win) > 0 {
			per = append(per, percentiles(win, q)[0])
		}
	}
	return per
}

// failed counts the phase's packets whose result was wrong or never
// came back.
func (p *phase) failed() int64 { return p.bad + p.sent - p.got.Load() }

// generator drives one deployment's wire session from a single
// goroutine; results are checked on the session's receive goroutine.
type generator struct {
	w     workload
	in    *inputs
	ref   *reference
	clock time.Time

	ring [ringSize]slot
	cur  *phase
	// next is the send count over the session's lifetime: data frame
	// seqs start at 1 and advance by one per packet.
	next uint32
	// flowPkt numbers the packets of each traced flow.
	flowPkt map[uint32]uint32
	// nonEmptyTotal counts non-empty results over the session, the
	// number of verdicts mboxd must have consumed.
	nonEmptyTotal int64
	// dead is set once a phase gave up on missing results and closed
	// the session; no further phase runs.
	dead bool
}

func newGenerator(w workload, in *inputs, ref *reference) *generator {
	return &generator{w: w, in: in, ref: ref, clock: time.Now(), flowPkt: make(map[uint32]uint32)}
}

func (g *generator) now() int64 { return int64(time.Since(g.clock)) }

// onResult is the wire session's result callback.
func (g *generator) onResult(dataSeq uint32, report []byte) {
	p := g.cur
	s := &g.ring[dataSeq%ringSize]
	now := g.now()
	if s.seq != dataSeq || p == nil {
		// A result for no packet in flight.
		if p != nil {
			p.bad++
		}
		return
	}
	if len(report) > 0 {
		p.nonEmpty++
	}
	if g.ref.check(int(s.pkt), report) {
		p.good += int64(len(g.in.payloads[s.pkt]))
		for int64(len(p.winStart)) <= (now-p.firstSend)/int64(time.Second) {
			p.winStart = append(p.winStart, len(p.lat))
		}
		p.lat = append(p.lat, now-s.start)
	} else {
		p.bad++
	}
	if s.traced {
		p.traced = append(p.traced, tracedPkt{
			traceID: s.traceID, pktIdx: s.pktIdx, sendWall: s.sendWall, sendDur: s.sendDur,
			arriveWall: time.Now().UnixNano(), nonEmpty: len(report) > 0,
		})
	}
	s.seq = 0
	p.lastArrive = now
	p.got.Add(1)
}

// send queues packet i of the session with start stamp start.
func (g *generator) send(d *deployment, start int64, sampler trace.Sampler) error {
	i := g.next
	seq := i + 1
	pkt := int(i) % len(g.in.payloads)
	key := g.in.flowKeys[int(i)%len(g.in.flowKeys)]
	tuple := tupleFor(key)
	s := &g.ring[seq%ringSize]
	if s.seq != 0 {
		return fmt.Errorf("result ring overrun at seq %d", seq)
	}
	*s = slot{seq: seq, pkt: int32(pkt), start: start}
	payload := g.in.payloads[pkt]
	before := g.now()
	var got uint32
	var err error
	if sampler.Enabled() && sampler.Sampled(tuple) {
		s.traced = true
		s.traceID = sampler.TraceID(tuple)
		s.pktIdx = g.flowPkt[key]
		g.flowPkt[key]++
		s.sendWall = time.Now().UnixNano()
		got, err = d.conn.SendDataTraced(d.tag, tuple, s.traceID, s.pktIdx, payload)
		s.sendDur = time.Now().UnixNano() - s.sendWall
	} else {
		got, err = d.conn.SendData(d.tag, tuple, payload)
	}
	if err != nil {
		return fmt.Errorf("send: %w", err)
	}
	if got != seq {
		return fmt.Errorf("wire seq %d, want %d", got, seq)
	}
	g.cur.sendNs += g.now() - before
	g.cur.sent++
	g.next++
	return nil
}

// run drives one phase of length dur and waits for every result. It
// sends as fast as the window admits, stamping each packet when its
// send begins.
func (g *generator) run(ctx context.Context, d *deployment, dur time.Duration, sampler trace.Sampler) (*phase, error) {
	p := &phase{}
	g.cur = p
	start := g.now()
	p.firstSend = start
	end := start + int64(dur)
	for g.now() < end && ctx.Err() == nil {
		for k := 0; k < 16; k++ {
			if err := g.send(d, g.now(), sampler); err != nil {
				return nil, err
			}
		}
	}
	d.conn.Flush()
	if err := g.drain(ctx, d, p); err != nil {
		return nil, err
	}
	p.wall = time.Duration(p.lastArrive - p.firstSend)
	g.nonEmptyTotal += p.nonEmpty
	g.cur = nil
	return p, nil
}

// resultDeadline bounds the wait for outstanding results after a phase
// stops sending; a packet still without a result then has failed.
const resultDeadline = 10 * time.Second

func (g *generator) drain(ctx context.Context, d *deployment, p *phase) error {
	deadline := time.Now().Add(resultDeadline)
	for p.got.Load() < p.sent {
		if err := d.conn.Err(); err != nil {
			return fmt.Errorf("wire session: %w", err)
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			if ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "perfbench: %d results missing after %v\n", p.sent-p.got.Load(), resultDeadline)
			}
			// Closing the session stops its receive goroutine, so no
			// late result races the reader; the run ends here.
			d.conn.Close()
			g.dead = true
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// churner pushes pattern updates during a phase, alternating an add
// and a remove of one batch of never-occurring rules, and counts those
// seen applied on the instance. The instance applies updates only at
// its config refresh, so the next push goes out as soon as the
// previous one is applied: one engine rebuild and hot-swap per refresh
// interval, whatever the refresh's phase against the run. The time
// from push to applied is mostly the wait for that refresh, so it is
// not reported; the rebuild itself is timed in process (probes.go).
type churner struct {
	d       *deployment
	batch   []int
	added   bool
	base    int // instance pattern count without the batch
	applied int
}

// swapPoll is how often /healthz is read while a push is pending.
const swapPoll = 20 * time.Millisecond

func newChurner(d *deployment, in *inputs) (*churner, error) {
	base, err := d.instancePatterns()
	if err != nil {
		return nil, err
	}
	c := &churner{d: d, base: base}
	for _, def := range in.churn {
		c.batch = append(c.batch, def.RuleID)
	}
	return c, nil
}

// during pushes updates until stop is closed.
func (c *churner) during(ctx context.Context, in *inputs, stop <-chan struct{}) error {
	for {
		cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		var err error
		if c.added {
			err = c.d.client.RemovePatterns(cctx, fwID, c.batch)
		} else {
			err = c.d.client.AddPatterns(cctx, fwID, in.churn)
		}
		cancel()
		if err != nil {
			return fmt.Errorf("churn push: %w", err)
		}
		c.added = !c.added
		want := c.base
		if c.added {
			want += len(c.batch)
		}
		// Watch /healthz until the instance runs the new set.
		for {
			select {
			case <-stop:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(swapPoll):
			}
			n, err := c.d.instancePatterns()
			if err != nil {
				return err
			}
			if n == want {
				c.applied++
				break
			}
		}
	}
}

// runChurn drives a phase with the churn schedule beside it.
func (g *generator) runChurn(ctx context.Context, d *deployment, c *churner, dur time.Duration, sampler trace.Sampler) (*phase, error) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churnErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		churnErr = c.during(ctx, g.in, stop)
	}()
	p, err := g.run(ctx, d, dur, sampler)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return p, churnErr
}
