package main

import (
	"runtime"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/core"
	"dpiservice/internal/mpm"
	"dpiservice/internal/packet"
	"dpiservice/internal/wire"
)

// probeBudget is the minimum measured time per layer probe; each probe
// repeats whole passes over the workload's packets until it is spent.
const probeBudget = 300 * time.Millisecond

// timePasses runs an untimed warm-up pass, then whole passes of fn
// until budget is spent, and returns ns per item and allocations per
// item over the timed passes. fn returns the items it handled.
func timePasses(budget time.Duration, fn func() int) (nsPer, allocsPer float64) {
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	items := 0
	start := time.Now()
	for time.Since(start) < budget || items == 0 {
		items += fn()
	}
	el := time.Since(start)
	runtime.ReadMemStats(&ms)
	if items == 0 {
		return 0, 0
	}
	return float64(el.Nanoseconds()) / float64(items), float64(ms.Mallocs-mallocs) / float64(items)
}

// probeResults are the in-process layer numbers, measured single
// threaded on the workload's own packets after the deployment stopped.
type probeResults struct {
	mpmNsPerPkt, mpmMbps           float64
	pfHitPct, pfConfirmPct         float64
	pfBailouts                     float64
	inspectNsPerPkt, inspectAllocs float64
	encodeNs, decodeNs             float64
	codecNsPerPkt                  float64
	rebuildMs                      float64
}

// rebuildReps is how many engine rebuilds the controller probe times.
const rebuildReps = 3

func runProbes(in *inputs, ref *reference) (probeResults, error) {
	var r probeResults
	bytesPerPass := 0
	for _, p := range in.payloads {
		bytesPerPass += len(p)
	}

	// mpm: the merged automaton the instance builds (full-table AC,
	// which ConfigFromInit selects), scanned with the chain's mask; and
	// the two-stage prefiltered matcher over the same patterns, for its
	// filter statistics.
	b := mpm.NewBuilder()
	var mask uint64
	for _, prof := range ref.cfg.Profiles {
		mask |= mpm.SetBit(prof.ID)
		for _, pat := range prof.Patterns.Patterns {
			if err := b.Add(prof.ID, pat.ID, pat.Content); err != nil {
				return r, err
			}
		}
	}
	full, err := b.BuildFull()
	if err != nil {
		return r, err
	}
	pf, err := b.BuildPrefiltered()
	if err != nil {
		return r, err
	}
	emit := func([]mpm.PatternRef, int) {}
	r.mpmNsPerPkt, _ = timePasses(probeBudget, func() int {
		for _, p := range in.payloads {
			full.Scan(p, full.Start(), mask, emit)
		}
		return len(in.payloads)
	})
	r.mpmMbps = float64(bytesPerPass) / float64(len(in.payloads)) * 8 / r.mpmNsPerPkt * 1e3
	var st mpm.PrefilterStats
	for _, p := range in.payloads {
		pf.ScanStats(p, pf.Start(), mask, emit, &st)
	}
	if st.Probes > 0 {
		r.pfHitPct = 100 * float64(st.Hits) / float64(st.Probes)
	}
	r.pfConfirmPct = 100 * float64(st.ConfirmedBytes) / float64(bytesPerPass)
	r.pfBailouts = float64(st.Bailouts)

	// core: Engine.Inspect on the reference engine, each packet on its
	// workload flow.
	eng := ref.engine
	tuples := make([]packet.FiveTuple, len(in.payloads))
	for i := range tuples {
		tuples[i] = tupleFor(in.flowKeys[i%len(in.flowKeys)])
	}
	var inspectErr error
	r.inspectNsPerPkt, r.inspectAllocs = timePasses(probeBudget, func() int {
		for i, p := range in.payloads {
			if _, err := eng.Inspect(ref.tag, tuples[i], p); err != nil {
				inspectErr = err
			}
		}
		return len(in.payloads)
	})
	if inspectErr != nil {
		return r, inspectErr
	}

	// packet: encode and decode of the workload's non-empty reports.
	var reps []*packet.Report
	for _, w := range ref.want {
		if len(w) == 0 {
			continue
		}
		rep := new(packet.Report)
		if _, err := packet.DecodeReport(w, rep); err != nil {
			return r, err
		}
		reps = append(reps, rep)
	}
	if len(reps) > 0 {
		var buf []byte
		r.encodeNs, _ = timePasses(probeBudget, func() int {
			for _, rep := range reps {
				buf = rep.AppendEncoded(buf[:0])
			}
			return len(reps)
		})
		var dec packet.Report
		var decErr error
		r.decodeNs, _ = timePasses(probeBudget, func() int {
			for _, w := range ref.want {
				if len(w) > 0 {
					if _, err := packet.DecodeReport(w, &dec); err != nil {
						decErr = err
					}
				}
			}
			return len(reps)
		})
		if decErr != nil {
			return r, decErr
		}
	}

	// controller: the engine rebuild dpinstance runs at start and on
	// each config refresh that applies a push, from the same
	// instance-init message; the median of a few rebuilds.
	var builds []float64
	for k := 0; k < rebuildReps; k++ {
		start := time.Now()
		cfg, err := controller.ConfigFromInit(ref.init)
		if err == nil {
			_, err = core.NewEngine(cfg)
		}
		if err != nil {
			return r, err
		}
		builds = append(builds, float64(time.Since(start).Nanoseconds())/1e6)
	}
	r.rebuildMs = median(builds)

	// wire codec: one data frame built and parsed per packet, without
	// a socket.
	data := make([]byte, 0, wire.MaxFramePayload)
	frame := make([]byte, 0, wire.MaxDatagram)
	var codecErr error
	r.codecNsPerPkt, _ = timePasses(probeBudget, func() int {
		for i, p := range in.payloads {
			data = wire.AppendData(data[:0], ref.tag, tuples[i], p)
			frame = wire.AppendFrame(frame[:0], wire.Header{Type: wire.TData, Token: 1, Seq: uint32(i)}, data)
			_, payload, _, err := wire.NextFrame(frame)
			if err == nil {
				_, _, _, err = wire.ParseDataHdr(payload)
			}
			if err != nil {
				codecErr = err
			}
		}
		return len(in.payloads)
	})
	return r, codecErr
}
