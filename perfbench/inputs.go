package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"dpiservice/internal/ctlproto"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/traffic"
)

// workload is one traffic mix driven closed loop against the
// deployment: the generator sends as fast as the wire window admits.
type workload struct {
	name string
	mix  traffic.Mix
	// Payload sizes in bytes, inclusive.
	minPayload, maxPayload int
	matchFrac              float64
	// flows is the number of round-robin flows.
	flows int
	// churn pushes pattern updates during the timed phases.
	churn bool
}

var workloads = []workload{
	{
		name: "bulk-http",
		mix:  traffic.HTTPMix, minPayload: 200, maxPayload: 1400, matchFrac: 0.08, flows: 64,
	},
	{
		name: "churn",
		mix:  traffic.HTTPMix, minPayload: 200, maxPayload: 1400, matchFrac: 0.08, flows: 64,
		churn: true,
	},
	{
		name: "attack",
		mix:  traffic.AttackMix, minPayload: 200, maxPayload: 1400, flows: 64,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// The two middleboxes of the one policy chain. The firewall registers
// first, so its pattern set gets index 0 on the controller and in the
// reference.
const (
	fwID    = "fw-1"
	fwType  = "l7fw"
	idsID   = "ids-1"
	idsType = "ids"
	// churnRuleBase numbers the churn batch's rules in the firewall's
	// set, clear of the generated rules' IDs 0..n-1.
	churnRuleBase = 10000
)

// sizes scales the deployment; tiny is for the benchmark's own tests.
type sizes struct {
	idsRules, fwRules int
	churnRules        int
	corpus            int // distinct payloads cycled through
}

func sizesFor(tiny bool) sizes {
	if tiny {
		return sizes{idsRules: 200, fwRules: 100, churnRules: 10, corpus: 512}
	}
	return sizes{idsRules: 2000, fwRules: 1000, churnRules: 100, corpus: 8192}
}

// inputs is everything a run generates from its seed.
type inputs struct {
	idsFile, fwFile string
	ids, fw         *patterns.Set
	payloads        [][]byte
	// flowKeys gives the flow of send i as flowKeys[i%len]: the
	// round-robin flows 0..flows-1.
	flowKeys []uint32
	churn    []ctlproto.PatternDef
}

// makeInputs writes the two rule files into dir and generates the
// traffic for w. The same seed gives the same inputs.
func makeInputs(w workload, seed int64, sz sizes, dir string) (*inputs, error) {
	in := &inputs{
		idsFile: filepath.Join(dir, "ids.rules"),
		fwFile:  filepath.Join(dir, "fw.rules"),
	}
	var err error
	if in.ids, err = writeRules(in.idsFile, idsID, sz.idsRules, seed); err != nil {
		return nil, err
	}
	if in.fw, err = writeRules(in.fwFile, fwID, sz.fwRules, seed+7919); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	// Planted contents come from both middleboxes' rules, so reports
	// carry sections for both.
	var pool []string
	for _, set := range []*patterns.Set{in.ids, in.fw} {
		for i := 0; i < 128 && i < len(set.Patterns); i++ {
			pool = append(pool, set.Patterns[rng.Intn(len(set.Patterns))].Content)
		}
	}
	gen := traffic.NewGenerator(traffic.Config{
		Seed: seed, Mix: w.mix, MatchFraction: w.matchFrac, InjectPatterns: pool,
		MinPayload: w.minPayload, MaxPayload: w.maxPayload,
	})
	in.payloads = make([][]byte, sz.corpus)
	for i := range in.payloads {
		in.payloads[i] = gen.Payload()
	}

	in.flowKeys = make([]uint32, w.flows)
	for i := range in.flowKeys {
		in.flowKeys[i] = uint32(i)
	}

	if w.churn {
		in.churn = churnBatch(rng, sz.churnRules, in.payloads)
	}
	return in, nil
}

// writeRules generates n Snort-style rules, writes them for mboxd, and
// returns the pattern set mboxd derives from the file.
func writeRules(path, name string, n int, seed int64) (*patterns.Set, error) {
	text := strings.Join(patterns.SnortLikeRules(n, seed), "\n") + "\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return nil, err
	}
	rules, err := patterns.ParseSnortRules(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("parse generated rules: %w", err)
	}
	return patterns.SetFromSnortRules(name, rules, 4), nil
}

// churnBatch makes n rules that occur in none of the payloads, so
// adding or removing them leaves every expected report unchanged.
func churnBatch(rng *rand.Rand, n int, payloads [][]byte) []ctlproto.PatternDef {
	const alphabet = "QXZJqxzj0123456789#@~^"
	defs := make([]ctlproto.PatternDef, 0, n)
	for len(defs) < n {
		b := []byte("churn-")
		for len(b) < 24 {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		if occursIn(b, payloads) {
			continue
		}
		defs = append(defs, ctlproto.PatternDef{RuleID: churnRuleBase + len(defs), Content: b})
	}
	return defs
}

func occursIn(pat []byte, payloads [][]byte) bool {
	for _, p := range payloads {
		if bytes.Contains(p, pat) {
			return true
		}
	}
	return false
}

// tupleFor maps a flow key to a distinct five-tuple.
func tupleFor(key uint32) packet.FiveTuple {
	return packet.FiveTuple{
		Src:      packet.IP4{10, byte(key >> 16), byte(key >> 8), byte(key)},
		Dst:      packet.IP4{192, 168, 0, 2},
		SrcPort:  uint16(1024 + key%60000),
		DstPort:  80,
		Protocol: packet.IPProtoTCP,
	}
}

// patternDefs renders a set the way mboxd pushes it.
func patternDefs(set *patterns.Set) []ctlproto.PatternDef {
	defs := make([]ctlproto.PatternDef, 0, len(set.Patterns)+len(set.Regexes))
	for _, p := range set.Patterns {
		defs = append(defs, ctlproto.PatternDef{RuleID: p.ID, Content: []byte(p.Content)})
	}
	for _, r := range set.Regexes {
		defs = append(defs, ctlproto.PatternDef{RuleID: r.ID, Regex: r.Expr})
	}
	return defs
}
