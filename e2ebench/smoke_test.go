package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that each run is correct and emits every named metric
// with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a deployment per run")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 1, trace: traced, size: 0.05}
			var out bytes.Buffer
			rep, err := run(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, traced, err, out.String())
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.name)
					continue
				}
				if got.Unit != m.unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, traced, m.name, got.Unit, m.unit)
				}
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{`"correct"`, `"attempted"`, `"failed"`, `"metrics"`} {
				if !strings.Contains(string(line), key) {
					t.Errorf("%s: result line lacks %s: %s", name, key, line)
				}
			}
			if !traced && !strings.Contains(out.String(), "p50_ms") {
				t.Errorf("%s: no percentile line with its sample count:\n%s", name, out.String())
			}
		}
	}
}

// TestUnknownWorkload checks that a bad name fails before any deployment
// starts.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run(context.Background(), config{workload: "nope", seconds: 1, size: 1}, &bytes.Buffer{}); err == nil {
		t.Fatal("run accepted an unknown workload")
	}
}
