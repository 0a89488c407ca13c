package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// startWire runs the batched-UDP wire data plane: a wire server that
// scans every delivered packet exactly once and answers with the
// encoded match report, plus an optional verdict-forwarding client
// that pushes non-empty reports to a middlebox verdict consumer. The
// cluster key and the instance's own session token both come from
// InstanceInit. Sampled packets (FlagTrace set by the sender) accrue
// decode/reassembly/scan/encode spans into tracer and propagate their
// trace context on the forwarded verdict; fl captures wire-level rare
// events. The returned func shuts the data plane down.
func startWire(listen, verdicts, id string, init ctlproto.InstanceInit, eng *atomic.Pointer[core.Engine], reg *obs.Registry, tracer *trace.Tracer, fl *trace.Flight) (func(), error) {
	met := wire.NewMetrics(reg)
	met.SetFlight(fl)
	tr, err := wire.ListenUDP(listen)
	if err != nil {
		return nil, err
	}
	srv := wire.NewServer(tr, init.WireKey, wire.Config{}, met)
	srv.SetLogf(log.Printf)

	var vc *wire.Conn
	if verdicts != "" {
		vtr, err := wire.DialUDP(verdicts)
		if err != nil {
			tr.Close()
			return nil, err
		}
		vc = wire.NewConn(vtr, init.WireToken, id, wire.Config{}, met)
		if err := vc.Start(10 * time.Second); err != nil {
			vc.Close()
			tr.Close()
			return nil, fmt.Errorf("verdict consumer %s: %w", verdicts, err)
		}
		log.Printf("dpinstance %s: forwarding verdicts to %s", id, verdicts)
		// Verdicts staged by a receive batch leave with that batch's
		// results instead of waiting for the session's retransmit tick.
		srv.OnBatch(vc.Flush)
	}

	// Handlers run on the server's single receive goroutine, so one
	// encode buffer is reused across packets.
	var enc []byte
	srv.OnData(func(s *wire.Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte) {
		traceID, pktIdx, traced := s.Trace()
		var rep *packet.Report
		var err error
		if traced {
			// Decode span: time from the datagram batch read to handler
			// dispatch (frame parse, reorder, trace-ext strip).
			decNs := s.SinceRecv()
			now := time.Now().UnixNano()
			tracer.Record(traceID, pktIdx, trace.StageDecode, now-decNs, decNs)
			var prepNs, scanNs int64
			rep, prepNs, scanNs, err = eng.Load().InspectStaged(tag, tuple, payload)
			// The engine's prepare stage (flow admission, decompression,
			// stopping conditions) is the wire pipeline's reassembly
			// analogue; the rest is the DFA scan.
			tracer.Record(traceID, pktIdx, trace.StageReassembly, now, prepNs)
			tracer.Record(traceID, pktIdx, trace.StageScan, now+prepNs, scanNs)
		} else {
			rep, err = eng.Load().InspectTimed(tag, tuple, payload)
		}
		if err != nil {
			log.Printf("dpinstance: inspect: %v", err)
			rep = nil
		}
		var encStart int64
		if traced {
			encStart = time.Now().UnixNano()
		}
		enc = enc[:0]
		if rep != nil {
			enc = rep.AppendEncoded(enc)
		}
		if err := s.SendResult(seq, enc); err != nil {
			log.Printf("dpinstance: result: %v", err)
		}
		if len(enc) > 0 && vc != nil {
			if traced {
				err = vc.SendVerdictTraced(tag, tuple, traceID, pktIdx, enc)
			} else {
				err = vc.SendVerdict(tag, tuple, enc)
			}
			if err != nil {
				log.Printf("dpinstance: verdict: %v", err)
			}
		}
		if traced {
			tracer.Record(traceID, pktIdx, trace.StageEncode, encStart, time.Now().UnixNano()-encStart)
		}
	})
	srv.Start()
	log.Printf("dpinstance %s: wire data plane on %s", id, srv.LocalAddr().String())

	return func() {
		srv.Close()
		if vc != nil {
			vc.Flush()
			if err := vc.WaitIdle(2 * time.Second); err != nil {
				log.Printf("dpinstance: verdict drain: %v", err)
			}
			vc.Close()
		}
	}, nil
}
