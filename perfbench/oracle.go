package main

import (
	"bytes"
	"fmt"

	"dpiservice/internal/controller"
	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
)

// reference is the benchmark's correctness oracle: an engine built in
// this process from the same generated rule files, through the same
// registration, chain and instance-init steps the daemons take.
type reference struct {
	// init is the instance-init message the reference was built from,
	// the one dpinstance builds its engine from.
	init   ctlproto.InstanceInit
	cfg    core.Config
	engine *core.Engine
	tag    uint16
	// want[i] is the encoded report the instance must return for
	// payload i; empty means no match.
	want [][]byte
}

func newReference(in *inputs) (*reference, error) {
	ctl := controller.New()
	for _, m := range []struct {
		reg  ctlproto.Register
		defs []ctlproto.PatternDef
	}{
		{ctlproto.Register{MboxID: fwID, Name: fwID, Type: fwType}, patternDefs(in.fw)},
		{ctlproto.Register{MboxID: idsID, Name: idsID, Type: idsType, ReadOnly: true}, patternDefs(in.ids)},
	} {
		if _, err := ctl.Register(m.reg); err != nil {
			return nil, err
		}
		if err := ctl.AddPatterns(m.reg.MboxID, m.defs); err != nil {
			return nil, err
		}
	}
	tag, err := ctl.DefineChain([]string{fwID, idsID})
	if err != nil {
		return nil, err
	}
	init, err := ctl.InstanceInitMsg("reference", nil, false)
	if err != nil {
		return nil, err
	}
	cfg, err := controller.ConfigFromInit(init)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	r := &reference{init: init, cfg: cfg, engine: eng, tag: tag, want: make([][]byte, len(in.payloads))}
	for i, p := range in.payloads {
		// The chain is stateless, so a payload's report does not depend
		// on its flow or on what the flow carried before.
		rep, err := eng.Inspect(tag, tupleFor(0), p)
		if err != nil {
			return nil, fmt.Errorf("reference inspect: %w", err)
		}
		if rep != nil {
			r.want[i] = rep.AppendEncoded(nil)
		}
	}
	return r, nil
}

// check reports whether got is the correct result for payload idx.
func (r *reference) check(idx int, got []byte) bool {
	return bytes.Equal(got, r.want[idx])
}

// nonEmpty counts payloads with a non-empty expected report.
func (r *reference) nonEmpty() int {
	n := 0
	for _, w := range r.want {
		if len(w) > 0 {
			n++
		}
	}
	return n
}
