package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRefreshSurvivesControllerRestart stops the controller under a
// running refresh loop and starts it again on the same address with a
// newer config: the loop counts the failed rounds, keeps ticking, and
// applies the new version. The hot-swap retires the old engine, so
// core.flows_active follows the live engine instead of adding the old
// engine's flows.
func TestRefreshSurvivesControllerRestart(t *testing.T) {
	ctl := controller.New()
	if _, err := ctl.Register(ctlproto.Register{MboxID: "ids-1", Type: "ids", Stateful: true, ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddPatterns("ids-1", []ctlproto.PatternDef{{RuleID: 0, Content: []byte("attack-sig")}}); err != nil {
		t.Fatal(err)
	}
	tag, err := ctl.DefineChain([]string{"ids-1"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := controller.Serve(ctl, ln, nil)

	cl, err := controller.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(controller.RetryPolicy{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond})

	init, err := helloCtx(cl, "dpi-1", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := controller.ConfigFromInit(init)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	first, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := first.NumPatterns(); n != 1 {
		t.Fatalf("first engine has %d patterns, want 1", n)
	}
	const flows = 64
	for i := 0; i < flows; i++ {
		tuple := packet.FiveTuple{Src: packet.IP4{10, 0, 0, byte(i)}, Dst: packet.IP4{10, 0, 1, 1}, SrcPort: uint16(1000 + i), DstPort: 80, Protocol: 6}
		if _, err := first.Inspect(tag, tuple, []byte(fmt.Sprintf("GET /%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	gauge := func() int64 {
		v, _ := reg.Snapshot().Gauge("core.flows_active")
		return v
	}
	if g := gauge(); g != flows {
		t.Fatalf("core.flows_active = %d, want %d", g, flows)
	}

	var eng atomic.Pointer[core.Engine]
	eng.Store(first)
	version := init.Version
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		exportAndRefresh(cl, "dpi-1", false, reg, &eng, trace.NewFlight("test", 64), &version, 20*time.Millisecond, stop)
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	srv.Close()
	errs := func() uint64 {
		v, _ := reg.Snapshot().Counter("inst.refresh_errors")
		return v
	}
	waitUntil(t, "two failed refresh rounds", func() bool { return errs() >= 2 })

	if err := ctl.AddPatterns("ids-1", []ctlproto.PatternDef{{RuleID: 1, Content: []byte("new-threat")}}); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := controller.Serve(ctl, ln2, nil)
	defer srv2.Close()

	waitUntil(t, "the new config version", func() bool { return eng.Load().NumPatterns() == 2 })
	if g, live := gauge(), eng.Load().ActiveFlows(); g != int64(live) {
		t.Fatalf("core.flows_active = %d after the swap, want the live engine's %d", g, live)
	}
}
