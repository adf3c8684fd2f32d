// Command perfbench is the repository benchmark. It runs one named
// workload against the public APIs of campaign/exp, engine and fetch,
// checks the workload's outputs, and prints its metrics by name with
// their units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, taken
// from the traced second half of the run, while the untraced first half
// gives the tracing overhead. Run it through run.sh from the repository
// root; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// opts are the benchmark's arguments as a workload sees them.
type opts struct {
	seed    int64
	seconds float64
	traced  bool
}

// workload runs one named workload for o.seconds and reports what it
// measured. A failed output check is recorded in the report, not
// returned as an error; errors are reserved for runs that could not
// take place at all.
type workload func(o opts) (*report, error)

var workloads = map[string]workload{
	"sim-fleet":       runSimFleet,
	"engine-bulk-64B": runEngineBulk,
	"engine-churn":    runEngineChurn,
	"fetch-lossy":     runFetchLossy,
}

// value is one measured number and the count of samples behind it.
type value struct {
	v float64
	n int64
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int64
	checks            []check
	e2e               map[string]value // end-to-end metrics
	layer             map[string]value // per-layer metrics, traced runs only
	extra             map[string]extra // printed for people, not gated
	digest            string           // output digest, equal across runs at one seed
}

// extra is a printed-only metric with its unit.
type extra struct {
	value
	unit string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newReport() *report {
	return &report{e2e: map[string]value{}, layer: map[string]value{}, extra: map[string]extra{}}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-fleet, engine-bulk-64B, engine-churn or fetch-lossy")
	seed := flag.Int64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Int("seconds", 20, "measured wall seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	spec, err := loadBenchSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	printMachine(name, seed, seconds, trace)

	var rep *report
	var want []metricSpec
	var got map[string]value
	if trace == 0 {
		if rep, err = w(opts{seed: seed, seconds: float64(seconds)}); err != nil {
			return err
		}
		want, got = spec.EndToEnd, rep.e2e
	} else {
		// The untraced first half is the reference the tracing overhead
		// is measured against; the traced second half gives the
		// per-layer metrics.
		half := float64(seconds) / 2
		plain, err := w(opts{seed: seed, seconds: half})
		if err != nil {
			return err
		}
		if rep, err = w(opts{seed: seed, seconds: half, traced: true}); err != nil {
			return err
		}
		rep.attempted += plain.attempted
		rep.failed += plain.failed
		rep.checks = append(plain.checks, rep.checks...)
		if plain.digest != "" || rep.digest != "" {
			rep.check("traced-digest", plain.digest == rep.digest,
				"untraced %s traced %s", plain.digest, rep.digest)
		}
		printOverhead(spec.EndToEnd, plain.e2e, rep.e2e)
		want, got = spec.PerLayer, rep.layer
	}

	for _, c := range rep.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Printf("check %-22s %-6s %s\n", c.name, status, c.detail)
	}
	if rep.digest != "" {
		fmt.Printf("digest %s\n", rep.digest)
	}
	rep.extra["failed_frac"] = extra{value{per(float64(rep.failed), float64(rep.attempted)), rep.attempted}, "ratio"}
	printExtras(rep.extra)
	res := jsonResult{
		Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]jsonMetric{},
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && trace == 0 {
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", name, m.Name)
		}
		// A per-layer metric of a layer this workload bypasses reads 0.
		res.Metrics[m.Name] = jsonMetric{Value: v.v, Unit: m.Unit}
		fmt.Printf("metric %-26s %16.6f %-6s n=%d\n", m.Name, v.v, m.Unit, v.n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// printExtras prints the printed-only metrics, sorted by name.
func printExtras(ex map[string]extra) {
	names := make([]string, 0, len(ex))
	for n := range ex {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := ex[n]
		fmt.Printf("extra  %-26s %16.6f %-6s n=%d\n", n, e.v, e.unit, e.n)
	}
}

// printOverhead reports traced minus untraced for each end-to-end metric.
func printOverhead(e2e []metricSpec, plain, traced map[string]value) {
	for _, m := range e2e {
		p, t := plain[m.Name].v, traced[m.Name].v
		pct := 0.0
		if p != 0 {
			pct = 100 * (t - p) / p
		}
		fmt.Printf("trace-overhead %-18s untraced %14.6f traced %14.6f %s (%+.1f%%)\n",
			m.Name, p, t, m.Unit, pct)
	}
}

// printMachine records where and how the result was measured.
func printMachine(name string, seed int64, seconds, trace int) {
	rec := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"go_version": runtime.Version(),
		"git_sha":    gitSHA(),
		"link":       "loopback",
	}
	b, _ := json.Marshal(rec) // a map of strings and numbers always encodes
	fmt.Printf("machine %s\n", b)
	fmt.Println("note: all engine and fetch traffic crosses the host loopback interface")
}

// gitSHA is the commit run.sh found the checkout at, if it is one.
func gitSHA() string {
	if sha := os.Getenv("PERFBENCH_GIT_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
