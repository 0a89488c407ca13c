package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// binDir holds the daemons built once for the tests that deploy them.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		panic(err)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildDaemons builds dpictl, mboxd and dpinstance from the parent
// module once per test binary.
func buildDaemons(t *testing.T) string {
	t.Helper()
	if _, err := os.Stat(filepath.Join(binDir, "dpinstance")); err == nil {
		return binDir
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"dpiservice/cmd/dpictl", "dpiservice/cmd/mboxd", "dpiservice/cmd/dpinstance")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	return binDir
}

func tinyRun(t *testing.T, workload string, trace int) *result {
	t.Helper()
	o := options{
		workload: workload, seed: 3, seconds: 2, trace: trace,
		bin: buildDaemons(t), work: t.TempDir(), tiny: true,
	}
	res, err := runBench(context.Background(), o, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	return res
}

// TestSmoke deploys every workload at tiny size and checks that every
// result matched the reference.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys the daemons")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := tinyRun(t, w.name, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

// TestOracleCountsFailures feeds results straight into the result
// callback: a correct report passes, while a report with one flipped
// byte and a packet whose result never arrives each count as failed.
func TestOracleCountsFailures(t *testing.T) {
	w, err := findWorkload("attack")
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(w, 1, sizesFor(true), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(in)
	if err != nil {
		t.Fatal(err)
	}
	var matched []int
	for i, want := range ref.want {
		if len(want) > 0 {
			matched = append(matched, i)
		}
	}
	if len(matched) < 3 {
		t.Fatalf("only %d matching payloads", len(matched))
	}
	g := newGenerator(w, in, ref)
	p := &phase{}
	g.cur = p
	for i, pkt := range matched[:3] {
		seq := uint32(i + 1)
		g.ring[seq] = slot{seq: seq, pkt: int32(pkt)}
		p.sent++
	}
	g.onResult(1, ref.want[matched[0]])
	flipped := append([]byte(nil), ref.want[matched[1]]...)
	flipped[len(flipped)-1] ^= 0x01
	g.onResult(2, flipped)
	// seq 3 never gets a result.
	if got := p.failed(); got != 2 {
		t.Fatalf("failed = %d, want 2 (one corrupted, one missing)", got)
	}
	if len(p.lat) != 1 {
		t.Fatalf("%d latency samples, want 1", len(p.lat))
	}
	// An empty result for a packet that should match is also wrong.
	g.ring[4] = slot{seq: 4, pkt: int32(matched[2])}
	p.sent++
	g.onResult(4, nil)
	if got := p.failed(); got != 3 {
		t.Fatalf("failed = %d after an empty result, want 3", got)
	}
}

// TestMetricsDeclared checks that the metrics a run prints are exactly
// the ones BENCHMARK.json declares, with the same units, and that the
// traced run stitches spans across all three processes.
func TestMetricsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys the daemons")
	}
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark has %d", names, len(workloads))
	}
	for _, c := range []struct {
		trace    int
		declared []struct{ Name, Unit string }
	}{{0, spec.EndToEnd}, {1, spec.PerLayer}} {
		res := tinyRun(t, "bulk-http", c.trace)
		want := make(map[string]string)
		for _, d := range c.declared {
			want[d.Name] = d.Unit
		}
		for name, m := range res.Metrics {
			unit, ok := want[name]
			switch {
			case !ok:
				t.Errorf("trace=%d prints undeclared metric %s", c.trace, name)
			case unit != m.Unit:
				t.Errorf("trace=%d metric %s: unit %q, declared %q", c.trace, name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace=%d does not print declared metric %s", c.trace, name)
			}
		}
		if c.trace == 1 && res.Metrics["trace.joined"].Value == 0 {
			t.Error("traced run joined no packet across generator, dpinstance and mboxd")
		}
	}
}
