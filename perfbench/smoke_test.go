package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"dramdig/internal/machine"
)

// benchmarkFile mirrors the keys of BENCHMARK.json the benchmark's own
// vocabulary must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestTruthFingerprint checks the definition-only ground truth the daemon
// workload verifies against equals the one a built machine reports.
func TestTruthFingerprint(t *testing.T) {
	for _, def := range machine.Settings() {
		m, err := machine.New(def, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := truthFingerprint(def)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Truth().Fingerprint(); got != want {
			t.Errorf("%s: truthFingerprint %s, machine truth %s", def.Name, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 32},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestLeastStolen(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		least int
		keep  []int
	}{
		// Every clean one is kept, however many that is.
		{[]float64{0.01, 0.2, 0, 0.05}, 1, []int{2, 0, 3}},
		// Too few clean ones: the least stolen make up the minimum.
		{[]float64{0.3, 0.1, 0.2, 0.4}, 2, []int{1, 2}},
		// The minimum cannot exceed what there is.
		{[]float64{0.3, 0.1}, 3, []int{1, 0}},
	} {
		order, n := leastStolen(c.steal, c.least)
		if got := order[:n]; !slices.Equal(got, c.keep) {
			t.Errorf("leastStolen(%v, %d) keeps %v; want %v", c.steal, c.least, got, c.keep)
		}
	}
}

// TestSmoke runs every workload briefly in both modes and checks the
// output contract: the result line's keys, every metric by name and
// unit, ok_frac == 1, and identical determinism digests for the traced
// and untraced runs of one seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for seconds")
	}
	bin := filepath.Join(t.TempDir(), "dramdigd")
	if out, err := exec.Command("go", "build", "-o", bin, "dramdig/cmd/dramdigd").CombinedOutput(); err != nil {
		t.Fatalf("building dramdigd: %v\n%s", err, out)
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		t.Run(wl, func(t *testing.T) {
			digests := map[string]any{}
			for _, trace := range []string{"0", "1"} {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--smoke", "--dramdigd", bin, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var result map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
					t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
				}
				var keys []string
				for k := range result {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
					t.Fatalf("trace %s: result keys %s", trace, got)
				}
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %s: correct %v attempted %d failed %d\n%s",
						trace, res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
					}
				}
				if trace == "0" {
					if ok := res.Metrics["ok_frac"].Value; ok != 1 {
						t.Errorf("ok_frac = %v, want exactly 1", ok)
					}
					for _, d := range defs {
						if res.Metrics[d.Name].Value == 0 {
							t.Errorf("end-to-end metric %s is 0", d.Name)
						}
					}
				}
				var detail struct {
					D struct {
						Detail map[string]any `json:"detail"`
					} `json:"perfbench_detail"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
					t.Fatalf("trace %s: detail line: %v", trace, err)
				}
				digests[trace] = detail.D.Detail["digest"]
			}
			if digests["0"] != digests["1"] {
				t.Errorf("determinism digest differs between untraced (%v) and traced (%v) runs", digests["0"], digests["1"])
			}
		})
	}
}
