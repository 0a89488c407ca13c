package middlebox

import (
	"testing"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/netsim"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/traffic"
)

// dpiRig wires a DPINode to a collector host over a two-node network so
// its transmissions can be observed directly.
type dpiRig struct {
	node      *DPINode
	dpiHost   *netsim.Host
	collector *netsim.Host
	net       *netsim.Network
}

func newDPIRig(t *testing.T, cfg core.Config) *dpiRig {
	t.Helper()
	n := netsim.NewNetwork()
	t.Cleanup(n.Stop)
	dpiHost := netsim.NewHost("dpi", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP4{10, 0, 0, 1})
	collector := netsim.NewHost("collector", packet.MAC{2, 0, 0, 0, 0, 2}, packet.IP4{10, 0, 0, 2})
	for _, h := range []*netsim.Host{dpiHost, collector} {
		if err := n.AddNode(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect(dpiHost, collector, netsim.LinkOpts{}); err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &dpiRig{
		node:      NewDPINode("dpi", dpiHost, engine),
		dpiHost:   dpiHost,
		collector: collector,
		net:       n,
	}
}

func dpiCfg() core.Config {
	return core.Config{
		Profiles: []core.Profile{{ID: 0, Name: "ids", Patterns: patterns.FromStrings("ids", []string{"attack-sig"})}},
		Chains:   map[uint16][]int{1: {0}},
	}
}

// inject delivers a frame to the DPI node as if it arrived on its link.
func (r *dpiRig) inject(frame []byte) { r.dpiHost.Recv(0, frame) }

func (r *dpiRig) collect(t *testing.T, n int) [][]byte {
	t.Helper()
	var out [][]byte
	deadline := time.Now().Add(2 * time.Second)
	for len(out) < n && time.Now().Before(deadline) {
		select {
		case f := <-r.collector.Inbox():
			out = append(out, f)
		case <-time.After(2 * time.Millisecond):
		}
	}
	if len(out) != n {
		t.Fatalf("collected %d frames, want %d", len(out), n)
	}
	return out
}

func (r *dpiRig) expectNothing(t *testing.T) {
	t.Helper()
	select {
	case f := <-r.collector.Inbox():
		t.Fatalf("unexpected frame: %x", f[:16])
	case <-time.After(30 * time.Millisecond):
	}
}

func taggedFrame(t *testing.T, tag uint16, payload string) []byte {
	t.Helper()
	var fb traffic.FrameBuilder
	frame := fb.Build(tpl, []byte(payload))
	tagged, err := packet.PushVLAN(frame, tag, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tagged
}

func TestDPINodeCleanPacketForwardedUnmodified(t *testing.T) {
	r := newDPIRig(t, dpiCfg())
	in := taggedFrame(t, 1, "perfectly clean")
	want := append([]byte(nil), in...)
	r.inject(in)
	out := r.collect(t, 1)[0]
	if string(out) != string(want) {
		t.Error("clean packet modified in flight")
	}
}

func TestDPINodeMatchEmitsMarkAndReport(t *testing.T) {
	r := newDPIRig(t, dpiCfg())
	r.inject(taggedFrame(t, 1, "with attack-sig"))
	frames := r.collect(t, 2)
	var s0, s1 packet.Summary
	if err := packet.Summarize(frames[0], &s0); err != nil || s0.IsReport || !s0.ECNMarked {
		t.Errorf("first frame: %+v, err %v (want marked data)", s0, err)
	}
	if err := packet.Summarize(frames[1], &s1); err != nil || !s1.IsReport {
		t.Errorf("second frame: %+v, err %v (want result)", s1, err)
	}
	var rep packet.Report
	if _, err := packet.DecodeReport(s1.Payload, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Flags&packet.FlagHasTuple == 0 || rep.Tuple != tpl {
		t.Errorf("report tuple = %+v", rep)
	}
	if rep.PacketID != uint32(s0.IPID) {
		t.Errorf("report PacketID %d != data IPID %d", rep.PacketID, s0.IPID)
	}
}

func TestDPINodeUntaggedAndUnknownChainPassThrough(t *testing.T) {
	r := newDPIRig(t, dpiCfg())
	var fb traffic.FrameBuilder
	// Untagged: not steered DPI traffic.
	r.inject(fb.Build(tpl, []byte("untagged attack-sig")))
	out := r.collect(t, 1)[0]
	var s packet.Summary
	if err := packet.Summarize(out, &s); err != nil || s.ECNMarked {
		t.Error("untagged frame scanned/marked")
	}
	// Unknown chain tag: forwarded unchanged, no report.
	r.inject(taggedFrame(t, 99, "attack-sig under unknown tag"))
	out = r.collect(t, 1)[0]
	if err := packet.Summarize(out, &s); err != nil || s.ECNMarked || s.IsReport {
		t.Error("unknown-tag frame handled as scanned traffic")
	}
	r.expectNothing(t)
	if got := r.node.Engine().Snapshot().Packets; got != 0 {
		t.Errorf("engine scanned %d packets", got)
	}
}

func TestDPINodeResultOnlyMode(t *testing.T) {
	r := newDPIRig(t, dpiCfg())
	r.node.SetResultOnly(1, true)
	// Clean packet: bypass tag, no report.
	r.inject(taggedFrame(t, 1, "clean"))
	out := r.collect(t, 1)[0]
	if id, ok := packet.OuterVLAN(out); !ok || id != 1|ResultOnlyBit {
		t.Errorf("bypass tag = %d/%v", id, ok)
	}
	// Matching packet: bypass-tagged data plus a chain-tagged report.
	r.inject(taggedFrame(t, 1, "attack-sig!"))
	frames := r.collect(t, 2)
	if id, _ := packet.OuterVLAN(frames[0]); id != 1|ResultOnlyBit {
		t.Errorf("data tag = %d", id)
	}
	var s packet.Summary
	if err := packet.Summarize(frames[1], &s); err != nil || !s.IsReport || s.VLANID != 1 {
		t.Errorf("report frame: %+v err %v", s, err)
	}
	// Data must NOT carry the ECN mark in result-only mode (nothing
	// downstream pairs it).
	if packet.HasECNMark(frames[0]) {
		t.Error("result-only data packet marked")
	}
}

func TestDPINodeInlineMode(t *testing.T) {
	r := newDPIRig(t, dpiCfg())
	r.node.SetInlineResults(1, true)
	r.inject(taggedFrame(t, 1, "attack-sig inline"))
	out := r.collect(t, 1)[0] // ONE frame carrying shim + packet
	var s packet.Summary
	if err := packet.Summarize(out, &s); err != nil || !s.IsReport {
		t.Fatalf("inline frame: %+v err %v", s, err)
	}
	var rep packet.Report
	inner, hasInner, err := SplitInline(s.Payload, &rep)
	if err != nil || !hasInner {
		t.Fatalf("SplitInline: %v %v", hasInner, err)
	}
	if rep.NumMatches() != 1 {
		t.Errorf("matches = %d", rep.NumMatches())
	}
	// The inner packet re-frames into the original.
	bare := RebuildInnerFrame(packet.MAC{}, packet.MAC{}, inner)
	var is packet.Summary
	if err := packet.Summarize(bare, &is); err != nil || is.Tuple != tpl {
		t.Errorf("inner summary %+v err %v", is, err)
	}
	// Clean packets stay single plain frames.
	r.inject(taggedFrame(t, 1, "clean"))
	out = r.collect(t, 1)[0]
	if err := packet.Summarize(out, &s); err != nil || s.IsReport {
		t.Error("clean packet shimmed")
	}
}

func TestDPINodeFinEndsFlow(t *testing.T) {
	cfg := core.Config{
		Profiles: []core.Profile{{ID: 0, Stateful: true, Patterns: patterns.FromStrings("s", []string{"split-pat"})}},
		Chains:   map[uint16][]int{1: {0}},
	}
	r := newDPIRig(t, cfg)
	var fb traffic.FrameBuilder
	mk := func(payload string, fin bool) []byte {
		var frame []byte
		if fin {
			frame = fb.BuildFin(tpl, []byte(payload))
		} else {
			frame = fb.Build(tpl, []byte(payload))
		}
		tagged, _ := packet.PushVLAN(frame, 1, 0)
		return tagged
	}
	r.inject(mk("..split-", true)) // FIN resets the flow state
	r.collect(t, 1)
	r.inject(mk("pat..", false))
	r.collect(t, 1)
	if r.node.Engine().ActiveFlows() > 1 {
		t.Errorf("ActiveFlows = %d", r.node.Engine().ActiveFlows())
	}
	if got := r.node.Engine().Snapshot().Matches; got != 0 {
		t.Errorf("match across FIN boundary: %d", got)
	}
}

func TestDPINodeTelemetryHeavyFlows(t *testing.T) {
	r := newDPIRig(t, dpiCfg())
	heavy := tpl
	heavy.SrcPort = 666
	for i := 0; i < 5; i++ {
		var fb traffic.FrameBuilder
		frame := fb.Build(heavy, []byte("attack-sig attack-sig attack-sig"))
		tagged, _ := packet.PushVLAN(frame, 1, 0)
		r.inject(tagged)
	}
	r.collect(t, 10) // 5 data + 5 reports
	tel := r.node.Telemetry(4)
	if tel.InstanceID != "dpi" || tel.Packets != 5 {
		t.Errorf("telemetry = %+v", tel)
	}
	if len(tel.HeavyFlows) == 0 {
		t.Fatal("no heavy flows reported")
	}
	flow, ok := TupleOf(tel.HeavyFlows[0].Flow)
	if !ok || flow != heavy {
		t.Errorf("heavy flow = %v", flow)
	}
}

func TestDPINodeSwapEngine(t *testing.T) {
	r := newDPIRig(t, dpiCfg())
	fresh, err := core.NewEngine(core.Config{
		Profiles: []core.Profile{{ID: 0, Patterns: patterns.FromStrings("v2", []string{"new-threat"})}},
		Chains:   map[uint16][]int{1: {0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.node.SwapEngine(fresh)
	r.inject(taggedFrame(t, 1, "attack-sig")) // old pattern: clean now
	out := r.collect(t, 1)[0]
	if packet.HasECNMark(out) {
		t.Error("old pattern still matches after swap")
	}
	r.inject(taggedFrame(t, 1, "new-threat"))
	frames := r.collect(t, 2)
	if !packet.HasECNMark(frames[0]) {
		t.Error("new pattern not matched after swap")
	}
}

// TestDPINodeSwapRetiresFlows swaps out an engine holding 64 flows on a
// registry the two engines share: core.flows_active must then equal the
// new engine's flow count, not keep the retired engine's flows.
func TestDPINodeSwapRetiresFlows(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := dpiCfg()
	cfg.Metrics = reg
	r := newDPIRig(t, cfg)
	old := r.node.Engine()
	for i := 0; i < 64; i++ {
		tuple := packet.FiveTuple{Src: packet.IP4{10, 0, 0, byte(i)}, Dst: packet.IP4{10, 0, 0, 2}, SrcPort: uint16(2000 + i), DstPort: 80, Protocol: 6}
		if _, err := old.Inspect(1, tuple, []byte("clean")); err != nil {
			t.Fatal(err)
		}
	}
	gauge := func() int64 {
		v, _ := reg.Snapshot().Gauge("core.flows_active")
		return v
	}
	if g := gauge(); g != 64 {
		t.Fatalf("core.flows_active = %d before the swap, want 64", g)
	}
	fresh, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.node.SwapEngine(fresh)
	r.inject(taggedFrame(t, 1, "clean"))
	r.collect(t, 1)
	if g, live := gauge(), fresh.ActiveFlows(); g != int64(live) || live != 1 {
		t.Fatalf("core.flows_active = %d after the swap, want the new engine's %d (1)", g, live)
	}
}
