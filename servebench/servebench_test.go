package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinySizes shrinks every workload to the two smallest topologies and a
// handful of requests.
func tinySizes() sizes {
	return sizes{
		Topologies: []string{"Grid", "Falcon"},
		Requests:   24,
		Quality:    6,
		HotSeeds:   1,
		MemTier:    4,
		ZipfS:      1.1,
		Mappings:   []int{2},
	}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyRun(t *testing.T, name string, trace bool) *report {
	t.Helper()
	w, err := generate(name, 7, tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: name, seed: 7, seconds: 1, duration: time.Millisecond,
		trace: trace, workdir: t.TempDir(), clients: 2, setups: 1}
	rep, err := measure(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed > 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d/%d: %v", name, trace, rep.Correct, rep.Failed, rep.Sent, rep.FirstErr)
	}
	return rep
}

// checkNames asserts the run emitted exactly the metrics BENCHMARK.json
// names, each with its unit.
func checkNames(t *testing.T, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	got := map[string]string{}
	for _, m := range rep.Metrics {
		got[m.Name] = m.Unit
	}
	if len(got) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", rep.Workload, rep.Trace, len(got), len(want))
	}
	for _, m := range want {
		if unit, ok := got[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s trace=%v: metric %s unit %q, want %q", rep.Workload, rep.Trace, m.Name, unit, m.Unit)
		}
	}
}

func layerValue(rep *report, name string) float64 {
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			checkNames(t, tinyRun(t, name, false), bf.EndToEnd)
			rep := tinyRun(t, name, true)
			checkNames(t, rep, bf.PerLayer)
			hit := layerValue(rep, "service.layout_hit_ratio")
			switch name {
			case "cold-sweep":
				if hit != 0 {
					t.Errorf("cold-sweep layout hit ratio %v, want 0", hit)
				}
			case "hot-hits":
				if hit != 1 {
					t.Errorf("hot-hits layout hit ratio %v, want 1", hit)
				}
			}
		})
	}
}

func TestGenerationIsPureInSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 3, tinySizes())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 3, tinySizes())
		c, _ := generate(name, 4, tinySizes())
		if a.inputDigest() != b.inputDigest() {
			t.Errorf("%s: same seed, different input digests", name)
		}
		if a.inputDigest() == c.inputDigest() {
			t.Errorf("%s: seeds 3 and 4 give the same input digest", name)
		}
	}
}

func TestSameSeedSameOutputs(t *testing.T) {
	a := tinyRun(t, "cold-sweep", false)
	b := tinyRun(t, "cold-sweep", false)
	if a.OutputDigest != b.OutputDigest {
		t.Errorf("output digests differ: %s vs %s", a.OutputDigest, b.OutputDigest)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hot-hits", "--trace", "2"},
		{"--workload", "hot-hits", "--seconds", "0"},
	} {
		if code := run(args, os.Stdout, os.Stderr); code == 0 {
			t.Errorf("run(%q) = 0, want an error code", args)
		}
	}
}
