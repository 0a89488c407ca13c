package main

import (
	"math"
	"os"
	"sort"
	"time"

	"dpiservice/internal/obs"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// noTrace sends every packet untraced.
var noTrace = trace.NewSampler(0, 0)

// cpuSample is the CPU time used so far by each process.
type cpuSample struct{ ctl, ids, inst, self time.Duration }

// cpuDelta is the CPU each process used over a phase of length wall.
type cpuDelta struct {
	cpuSample
	wall time.Duration
}

func (c cpuDelta) daemons() time.Duration { return c.ctl + c.ids + c.inst }

func (c cpuSample) sub(o cpuSample, wall time.Duration) cpuDelta {
	return cpuDelta{cpuSample{c.ctl - o.ctl, c.ids - o.ids, c.inst - o.inst, c.self - o.self}, wall}
}

func (b *bencher) readCPU() (cpuSample, error) {
	var s cpuSample
	for _, t := range []struct {
		dst *time.Duration
		pid int
	}{
		{&s.ctl, b.d.ctl.cmd.Process.Pid},
		{&s.ids, b.d.ids.cmd.Process.Pid},
		{&s.inst, b.d.inst.cmd.Process.Pid},
		{&s.self, os.Getpid()},
	} {
		v, err := procCPU(t.pid)
		if err != nil {
			return s, err
		}
		*t.dst = v
	}
	return s, nil
}

// snapshotPair is one scrape of the instance's and mboxd's /metrics.
type snapshotPair struct{ inst, mbox *obs.Snapshot }

func (b *bencher) scrape() (snapshotPair, error) {
	inst, err := b.d.metrics(b.d.instDbg)
	if err != nil {
		return snapshotPair{}, err
	}
	mbox, err := b.d.metrics(b.d.mboxDbg)
	return snapshotPair{inst, mbox}, err
}

func counterDelta(before, after *obs.Snapshot, name string) float64 {
	a, _ := after.Counter(name)
	b, _ := before.Counter(name)
	return float64(a - b)
}

// histDelta is the histogram of the observations made between two
// snapshots.
func histDelta(before, after *obs.Snapshot, name string) obs.HistogramValue {
	a, _ := after.Histogram(name)
	b, ok := before.Histogram(name)
	if !ok || len(b.Buckets) != len(a.Buckets) {
		return a
	}
	d := obs.HistogramValue{Name: name, Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range a.Buckets {
		bk := a.Buckets[i]
		bk.Count -= b.Buckets[i].Count
		d.Buckets = append(d.Buckets, bk)
	}
	return d
}

// wireStatsDelta is the generator session's protocol counters around
// the timed phase.
type wireStatsDelta struct{ before, after wire.Stats }

// layerMetrics fills the per-layer metrics from the counter deltas of
// the timed phase, the traced phase and the in-process probes.
func (b *bencher) layerMetrics(r *result, m *measurement, pr probeResults) {
	p := m.timedP
	pkts := float64(p.sent)
	wall := m.cpu.wall.Seconds()
	ib, ia := m.before.inst, m.after.inst
	mb, ma := m.before.mbox, m.after.mbox
	gb, ga := m.genStats.before, m.genStats.after

	r.set("mpm.scan_ns_per_pkt", pr.mpmNsPerPkt)
	r.set("mpm.mbps", pr.mpmMbps)
	r.set("mpm.pf_hit_pct", pr.pfHitPct)
	r.set("mpm.pf_confirm_pct", pr.pfConfirmPct)
	r.set("mpm.pf_bailouts", pr.pfBailouts)

	r.set("core.inspect_ns_per_pkt", pr.inspectNsPerPkt)
	r.set("core.inspect_allocs_per_pkt", pr.inspectAllocs)
	scan := histDelta(ib, ia, "core.scan_ns")
	r.set("core.scan_p50_ns", scan.Quantile(0.50))
	r.set("core.scan_p99_ns", scan.Quantile(0.99))
	r.set("core.scan_busy_frac", float64(scan.Sum)/float64(m.cpu.wall.Nanoseconds()))
	active, _ := ia.Gauge("core.flows_active")
	r.set("core.flows_active", float64(active))

	r.set("packet.encode_ns_per_report", pr.encodeNs)
	r.set("packet.decode_ns_per_report", pr.decodeNs)

	r.set("wire.codec_ns_per_pkt", pr.codecNsPerPkt)
	r.set("wire.writes_per_pkt", counterDelta(ib, ia, "wire.batches_out")/pkts)
	r.set("wire.reads_per_pkt", counterDelta(ib, ia, "wire.batches_in")/pkts)
	r.set("wire.acks_per_pkt", (counterDelta(ib, ia, "wire.acks_sent")+float64(ga.AcksSent-gb.AcksSent))/pkts)
	r.set("wire.retransmits_per_ksent", 1000*(counterDelta(ib, ia, "wire.retransmits")+float64(ga.Retransmits-gb.Retransmits))/pkts)
	r.set("wire.overflow_drops", counterDelta(ib, ia, "wire.reorder_overflow_drops")+float64(ga.OverflowDrops-gb.OverflowDrops))

	r.set("mbox.verdicts_per_pkt", counterDelta(mb, ma, "mbox.verdicts")/pkts)
	r.set("mbox.bad_reports", counterDelta(mb, ma, "mbox.bad_reports"))
	r.set("mbox.cpu_util", m.cpu.ids.Seconds()/wall)

	r.set("ctl.swaps_applied", float64(m.swaps))
	r.set("ctl.rebuild_ms", pr.rebuildMs)

	r.set("inst.cpu_util", m.cpu.inst.Seconds()/wall)

	r.set("gen.send_ns_per_pkt", float64(p.sendNs)/pkts)
	r.set("gen.cpu_util", m.cpu.self.Seconds()/wall)

	ts := m.trace
	r.set("trace.joined", float64(ts.joined))
	for _, st := range []string{"send", "decode", "reassembly", "scan", "encode", "consume"} {
		q := percentiles(ts.stages[st], 0.50, 0.99)
		r.set("trace."+st+"_p50_us", q[0]/1e3)
		r.set("trace."+st+"_p99_us", q[1]/1e3)
	}
	for name, v := range map[string][]int64{"up_gap": ts.upGap, "down_gap": ts.downGap, "verdict_gap": ts.verdictGap} {
		q := percentiles(v, 0.50, 0.99)
		r.set("trace."+name+"_p50_us", q[0]/1e3)
		r.set("trace."+name+"_p99_us", q[1]/1e3)
	}
	t := m.tracedP
	r.set("trace.overhead_pct_p50", 100*(percentiles(t.lat, 0.5)[0]/percentiles(p.lat, 0.5)[0]-1))
	untracedCPU := m.cpu.daemons().Seconds() / pkts
	tracedCPU := m.tracedCPU.daemons().Seconds() / float64(t.sent)
	r.set("trace.overhead_pct_cpu", 100*(tracedCPU/untracedCPU-1))
}

// percentiles returns the nearest-rank quantiles of v (0 when empty).
func percentiles(v []int64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(v) == 0 {
		return out
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, q := range qs {
		k := int(math.Ceil(q*float64(len(s)))) - 1
		if k < 0 {
			k = 0
		}
		out[i] = float64(s[k])
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
