// Command perfbench is the repository's benchmark. For one workload it
// starts the real dpictl, two mboxd and dpinstance processes on
// loopback UDP, drives the instance from this process through the
// public wire.Conn API, checks every match report against a reference
// engine, and prints end-to-end metrics (-trace 0) or per-layer
// metrics (-trace 1). The last line of standard output is one JSON
// object. See README.md for the workloads and metrics.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload bulk-http --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"dpiservice/internal/trace"
)

// metricDef declares one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are printed with -trace 0, perLayer with -trace 1.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_mbps", "Mbit/s"},
	{"result_p50_us", "us"},
	{"result_p99_us", "us"},
	{"cpu_us_per_pkt", "us"},
	{"instance_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"mpm.scan_ns_per_pkt", "ns"},
	{"mpm.mbps", "Mbit/s"},
	{"mpm.pf_hit_pct", "%"},
	{"mpm.pf_confirm_pct", "%"},
	{"mpm.pf_bailouts", "count"},
	{"core.inspect_ns_per_pkt", "ns"},
	{"core.inspect_allocs_per_pkt", "count"},
	{"core.scan_p50_ns", "ns"},
	{"core.scan_p99_ns", "ns"},
	{"core.scan_busy_frac", "ratio"},
	{"core.flows_active", "count"},
	{"packet.encode_ns_per_report", "ns"},
	{"packet.decode_ns_per_report", "ns"},
	{"wire.codec_ns_per_pkt", "ns"},
	{"wire.writes_per_pkt", "ratio"},
	{"wire.reads_per_pkt", "ratio"},
	{"wire.acks_per_pkt", "ratio"},
	{"wire.retransmits_per_ksent", "count"},
	{"wire.overflow_drops", "count"},
	{"mbox.verdicts_per_pkt", "ratio"},
	{"mbox.bad_reports", "count"},
	{"mbox.cpu_util", "ratio"},
	{"ctl.swaps_applied", "count"},
	{"ctl.rebuild_ms", "ms"},
	{"inst.cpu_util", "ratio"},
	{"gen.send_ns_per_pkt", "ns"},
	{"gen.cpu_util", "ratio"},
	{"trace.joined", "count"},
	{"trace.send_p50_us", "us"},
	{"trace.send_p99_us", "us"},
	{"trace.decode_p50_us", "us"},
	{"trace.decode_p99_us", "us"},
	{"trace.reassembly_p50_us", "us"},
	{"trace.reassembly_p99_us", "us"},
	{"trace.scan_p50_us", "us"},
	{"trace.scan_p99_us", "us"},
	{"trace.encode_p50_us", "us"},
	{"trace.encode_p99_us", "us"},
	{"trace.consume_p50_us", "us"},
	{"trace.consume_p99_us", "us"},
	{"trace.up_gap_p50_us", "us"},
	{"trace.up_gap_p99_us", "us"},
	{"trace.down_gap_p50_us", "us"},
	{"trace.down_gap_p99_us", "us"},
	{"trace.verdict_gap_p50_us", "us"},
	{"trace.verdict_gap_p99_us", "us"},
	{"trace.overhead_pct_p50", "%"},
	{"trace.overhead_pct_cpu", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin      string // directory holding dpictl, mboxd and dpinstance
	work     string // directory for per-run rule files and daemon logs
	tiny     bool   // small rule sets and corpus, one setup: set by the tests
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: bulk-http, churn or attack")
	flag.Int64Var(&o.seed, "seed", 1, "seed for rules and traffic")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a counter run, a traced run and in-process probes")
	flag.StringVar(&o.bin, "bin", "", "directory with the built daemons (required)")
	flag.StringVar(&o.work, "work", "", "directory for run files and logs (required)")
	flag.Parse()
	if o.bin == "" || o.work == "" || (o.trace != 0 && o.trace != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runBench(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	// A run with any failed packet is not a result: its metrics are
	// withheld and it exits non-zero.
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d packets failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// runBench runs one workload end to end. Human-readable lines go to
// out; the caller prints the result.
func runBench(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	bins, err := filepath.Abs(o.bin)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-seed%d-trace%d-pid%d", w.name, o.seed, o.trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	keepLogs := true
	defer func() {
		if keepLogs {
			fmt.Fprintf(os.Stderr, "perfbench: daemon logs kept in %s\n", dir)
		} else {
			os.RemoveAll(dir)
		}
	}()

	// One generator thread: with two, the generator's own scheduling
	// split result latency into two modes about 30 us apart from run
	// to run.
	runtime.GOMAXPROCS(1)
	sz := sizesFor(o.tiny)
	in, err := makeInputs(w, o.seed, sz, dir)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(in)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		w.name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "# rules: %s %d (%d patterns), %s %d (%d patterns), merged %d; corpus %d payloads of %d-%d B, %.1f%% with a report\n",
		idsID, sz.idsRules, len(in.ids.Patterns), fwID, sz.fwRules, len(in.fw.Patterns), ref.engine.NumPatterns(),
		len(in.payloads), w.minPayload, w.maxPayload, 100*float64(ref.nonEmpty())/float64(len(in.payloads)))
	fmt.Fprintf(out, "# deployment: dpictl; mboxd -id %s -type %s -rules; mboxd -id %s -type %s -rules -readonly -chain %s,%s -listen; dpinstance -listen -verdicts -telemetry %s (all else default), loopback UDP\n",
		fwID, fwType, idsID, idsType, fwID, idsID, telemetryEvery)
	fmt.Fprintf(out, "# load: closed loop, one wire session, %d flows\n", w.flows)
	if w.churn {
		fmt.Fprintf(out, "# churn: %d-rule add/remove on %s, next push as soon as the last is applied\n", len(in.churn), fwID)
	}

	b := &bencher{o: o, w: w, in: in, ref: ref, bins: bins, dir: dir, out: out}
	res, err := b.run(ctx)
	if err == nil && res.Correct {
		keepLogs = false
	}
	return res, err
}

// bencher holds one run's state.
type bencher struct {
	o    options
	w    workload
	in   *inputs
	ref  *reference
	bins string
	dir  string
	out  io.Writer

	d *deployment
	g *generator
}

func (b *bencher) run(ctx context.Context) (*result, error) {
	reps := 5
	if b.o.trace == 1 || b.o.tiny {
		reps = 1
	}
	// Set up several times; the last deployment is the one measured.
	var setups []float64
	for r := 0; r < reps; r++ {
		g := newGenerator(b.w, b.in, b.ref)
		d, err := deploy(ctx, b.bins, b.dir, b.in, g.onResult)
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		setups = append(setups, d.setup.Seconds())
		if r < reps-1 {
			d.stop()
			continue
		}
		b.d, b.g = d, g
	}
	defer func() { b.d.stop() }()
	if b.d.tag != b.ref.tag {
		return nil, fmt.Errorf("deployed chain tag %d, reference %d", b.d.tag, b.ref.tag)
	}
	fmt.Fprintf(b.out, "# setup_s samples: %v\n", setups)

	// The warm-up fills the wire window and admits every flow before
	// the timed phase starts.
	warm := time.Second
	if b.o.tiny {
		warm = 200 * time.Millisecond
	}
	var m measurement
	m.warm, m.err = b.g.run(ctx, b.d, warm, noTrace)
	if m.err == nil && !b.g.dead {
		m.err = b.timed(ctx, &m)
	}
	if m.err == nil && !b.g.dead && b.o.trace == 1 {
		m.err = b.traced(ctx, &m)
	}
	if m.err == nil {
		m.err = b.settleVerdicts(&m)
	}
	res := &result{Metrics: make(map[string]metric)}
	for _, p := range []*phase{m.warm, m.timedP, m.tracedP} {
		if p != nil {
			res.Attempted += p.sent
			res.Failed += p.failed()
		}
	}
	res.Failed += m.verdictShortfall + m.badReports
	res.Correct = m.err == nil && res.Failed == 0 && !b.g.dead
	if !res.Correct {
		b.d.dumpFlight()
	}
	b.d.stop()
	switch {
	case m.err != nil:
		return nil, m.err
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case b.g.dead:
		return nil, fmt.Errorf("session closed with results missing: %d of %d packets failed", res.Failed, res.Attempted)
	case res.Attempted == 0:
		return nil, errors.New("no packets sent")
	}

	if !res.Correct {
		return res, nil
	}
	p := m.timedP
	if b.o.trace == 0 {
		lat := percentiles(p.lat, 0.50, 0.99)
		fmt.Fprintf(b.out, "# timed phase: %d packets in %.3f s, %d latency samples (about %d per second), %d failed\n",
			p.sent, p.wall.Seconds(), len(p.lat), len(p.lat)/b.o.seconds, p.failed())
		fmt.Fprintf(b.out, "# result latency over the whole phase: p50 %.1f us, p99 %.1f us\n", lat[0]/1e3, lat[1]/1e3)
		fmt.Fprintf(b.out, "# result latency p99 in each second (us):")
		for _, v := range p.perSecond(b.o.seconds, 0.99) {
			fmt.Fprintf(b.out, " %.0f", v/1e3)
		}
		fmt.Fprintln(b.out)
		res.set("setup_s", median(setups))
		res.set("goodput_mbps", float64(p.good)*8/p.wall.Seconds()/1e6)
		res.set("result_p50_us", p.windowed(b.o.seconds, 0.50)/1e3)
		res.set("result_p99_us", p.windowed(b.o.seconds, 0.99)/1e3)
		res.set("cpu_us_per_pkt", m.cpu.daemons().Seconds()*1e6/float64(p.sent))
		res.set("instance_rss_mb", float64(m.instHWM)/(1<<20))
		return res, nil
	}

	probes, err := runProbes(b.in, b.ref)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	b.layerMetrics(res, &m, probes)
	return res, nil
}

// measurement collects what the phases of one run observed.
type measurement struct {
	err                   error
	warm, timedP, tracedP *phase
	cpu, tracedCPU        cpuDelta
	instHWM               int64
	before, after         snapshotPair
	genStats              wireStatsDelta
	churn                 *churner
	swaps                 int
	trace                 traceStats
	verdictShortfall      int64
	badReports            int64
}

// timed runs the untraced timed phase with counters read around it.
func (b *bencher) timed(ctx context.Context, m *measurement) error {
	var err error
	if b.w.churn {
		if m.churn, err = newChurner(b.d, b.in); err != nil {
			return err
		}
	}
	if m.before, err = b.scrape(); err != nil {
		return err
	}
	gs0 := b.d.conn.Stats()
	cpu0, err := b.readCPU()
	if err != nil {
		return err
	}
	host0, steal0, hostErr := hostTicks()
	dur := time.Duration(b.o.seconds) * time.Second
	if m.churn != nil {
		m.timedP, err = b.g.runChurn(ctx, b.d, m.churn, dur, noTrace)
		m.swaps = m.churn.applied
	} else {
		m.timedP, err = b.g.run(ctx, b.d, dur, noTrace)
	}
	if err != nil {
		return err
	}
	cpu1, err := b.readCPU()
	if err != nil {
		return err
	}
	m.cpu = cpu1.sub(cpu0, m.timedP.wall)
	// Time the hypervisor gave to other guests inflates every number;
	// the share is printed so a disturbed run can be recognized.
	if host1, steal1, err := hostTicks(); err == nil && hostErr == nil && host1 > host0 {
		fmt.Fprintf(b.out, "# host: %.1f%% of CPU time stolen by the hypervisor during the timed phase\n",
			100*float64(steal1-steal0)/float64(host1-host0))
	}
	if b.g.dead {
		return nil
	}
	m.genStats = wireStatsDelta{gs0, b.d.conn.Stats()}
	if m.instHWM, err = procHWM(b.d.inst.cmd.Process.Pid); err != nil {
		return err
	}
	m.after, err = b.scrape()
	return err
}

// traced repeats the workload with one flow in traceRate sending
// in-band trace context, then joins the spans of all three processes.
func (b *bencher) traced(ctx context.Context, m *measurement) error {
	sampler := trace.NewSampler(traceRate, uint64(b.o.seed))
	// Half the timed phase: the span rings keep only the last couple of
	// thousand sampled packets, and the overhead compares intensive
	// numbers (p50, CPU per packet).
	dur := time.Duration(b.o.seconds) * time.Second / 2
	cpu0, err := b.readCPU()
	if err != nil {
		return err
	}
	if m.churn != nil {
		m.tracedP, err = b.g.runChurn(ctx, b.d, m.churn, dur, sampler)
	} else {
		m.tracedP, err = b.g.run(ctx, b.d, dur, sampler)
	}
	if err != nil {
		return err
	}
	cpu1, err := b.readCPU()
	if err != nil {
		return err
	}
	m.tracedCPU = cpu1.sub(cpu0, m.tracedP.wall)
	if b.g.dead {
		return nil
	}
	ix := make(spanIndex)
	for _, addr := range []string{b.d.instDbg, b.d.mboxDbg} {
		body, err := b.d.get(addr, "/trace")
		if err != nil {
			return err
		}
		if err := ix.add(body); err != nil {
			return err
		}
	}
	m.trace = joinTraces(m.tracedP.traced, ix)
	fmt.Fprintf(b.out, "# traced phase: %d packets, %d sampled, %d joined across generator, dpinstance and mboxd\n",
		m.tracedP.sent, len(m.tracedP.traced), m.trace.joined)
	return nil
}

// settleVerdicts waits until mboxd has consumed one verdict per
// non-empty result, then counts any shortfall and bad reports as
// failures.
func (b *bencher) settleVerdicts(m *measurement) error {
	if b.g.dead {
		return nil
	}
	want := b.g.nonEmptyTotal
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := b.d.metrics(b.d.mboxDbg)
		if err != nil {
			return err
		}
		got, _ := s.Counter("mbox.verdicts")
		bad, _ := s.Counter("mbox.bad_reports")
		if int64(got) >= want || time.Now().After(deadline) {
			if int64(got) < want {
				m.verdictShortfall = want - int64(got)
			}
			m.badReports = int64(bad)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (r *result) set(name string, v float64) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("undeclared metric " + name)
}
