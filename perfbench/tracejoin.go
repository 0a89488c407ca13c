package main

import (
	"encoding/json"
	"fmt"

	"dpiservice/internal/trace"
)

// traceRate samples one flow in traceRate for the traced run. The
// daemons keep their spans in fixed rings, so only the most recent
// sampled packets can be joined; the rate keeps enough of them.
const traceRate = 8

type spanKey struct {
	id  string
	pkt uint32
}

type span struct{ start, dur int64 }

// spanIndex maps (trace ID, packet) to each stage's span.
type spanIndex map[spanKey]map[string]span

func (ix spanIndex) add(body []byte) error {
	var d trace.TraceDump
	if err := json.Unmarshal(body, &d); err != nil {
		return fmt.Errorf("decode /trace: %w", err)
	}
	for _, t := range d.Traces {
		for _, s := range t.Spans {
			k := spanKey{t.ID, s.Pkt}
			if ix[k] == nil {
				ix[k] = make(map[string]span)
			}
			ix[k][s.Stage] = span{s.StartNs, s.DurNs}
		}
	}
	return nil
}

// Instance stages in path order; consume runs in mboxd for packets
// whose report was forwarded as a verdict.
var instanceStages = []string{"decode", "reassembly", "scan", "encode"}

// traceStats are per-stage self times and inter-stage gaps, in ns, of
// the sampled packets found in every process's spans.
type traceStats struct {
	joined int
	stages map[string][]int64 // send, decode, reassembly, scan, encode, consume
	// upGap: generator send end to the instance's batch read;
	// downGap: instance encode end to the result's arrival at the
	// generator; verdictGap: encode end to mboxd's consume start.
	upGap, downGap, verdictGap []int64
}

// joinTraces stitches the generator's own spans with the daemons'.
// The spans are leaves: each stage's self time is its duration.
func joinTraces(pkts []tracedPkt, ix spanIndex) traceStats {
	ts := traceStats{stages: make(map[string][]int64)}
	for _, p := range pkts {
		sp := ix[spanKey{trace.IDString(p.traceID), p.pktIdx}]
		if sp == nil {
			continue
		}
		complete := true
		for _, st := range instanceStages {
			if _, ok := sp[st]; !ok {
				complete = false
			}
		}
		consume, hasConsume := sp["consume"]
		if !complete || (p.nonEmpty && !hasConsume) {
			continue
		}
		ts.joined++
		ts.stages["send"] = append(ts.stages["send"], p.sendDur)
		for _, st := range instanceStages {
			ts.stages[st] = append(ts.stages[st], sp[st].dur)
		}
		enc := sp["encode"]
		encEnd := enc.start + enc.dur
		ts.upGap = append(ts.upGap, sp["decode"].start-(p.sendWall+p.sendDur))
		ts.downGap = append(ts.downGap, p.arriveWall-encEnd)
		if hasConsume {
			ts.stages["consume"] = append(ts.stages["consume"], consume.dur)
			ts.verdictGap = append(ts.verdictGap, consume.start-encEnd)
		}
	}
	return ts
}
