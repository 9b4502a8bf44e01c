// Command benchmark is the byte ladder: one seeded, verified benchmark
// of the whole stack a byte crosses here — CRC kernel, stuff/destuff
// kernel, PPP codec, Link, SONET map/demap, Engine, line transport —
// and of the cycle-accurate RTL model beside it. See README.md.
//
//	go run ./benchmark --workload link_mtu --seed 1 --seconds 10 --trace 0
//	go run ./benchmark                       # every workload, both passes
//	go run ./benchmark -compare A.json B.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in this process and print its result line last")
		seed     = fs.Uint64("seed", 1, "traffic seed: the same seed gives the same datagrams")
		seconds  = fs.Float64("seconds", 10, "how long one run measures")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics; 1: traced pass, per-layer metrics; unset: 0 for one workload, both for the suite")
		out      = fs.String("out", "", "directory for results.json (suite) and spans_<workload>.json (traced); nothing is written without it")
		smoke    = fs.Bool("smoke", false, "20 ms segments, 5 per workload: checks the harness, measures nothing")
		compare  = fs.Bool("compare", false, "compare two result sets: -compare A.json[,A2.json...] B.json[,...]")
		specPath = fs.String("spec", "BENCHMARK.json", "the contract -compare takes its bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result sets, got %d", fs.NArg()))
		}
		sp, err := loadSpec(*specPath)
		if err != nil {
			return fail(err)
		}
		a, err := loadSets(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := loadSets(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if bad := printComparison(stdout, sp, a, b); bad > 0 {
			return 1
		}
		return 0
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
	}

	if *workload == "" {
		if err := runSuite(*seed, *seconds, *trace, *smoke, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg := fullConfig(*seed, *trace == 1, *seconds)
	if *smoke {
		cfg = smokeConfig(*seed, *trace == 1)
	}
	res, spans, err := runWorkload(*workload, cfg, stdout)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	if spans != nil && *out != "" {
		if err := writeSpans(filepath.Join(*out, "spans_"+*workload+".json"), *workload, spans); err != nil {
			return fail(err)
		}
	}
	// The segment quartiles, for the suite's result file, then the result.
	fmt.Fprintln(stdout, mustJSON(res.segments))
	fmt.Fprintln(stdout, mustJSON(res))
	return 0
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings
	}
	return string(raw)
}

// provenance records where and how a result set was made.
type provenance struct {
	Seed       uint64  `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Segments   int     `json:"segments"`
	SegmentMS  float64 `json:"segment_ms"`
	Smoke      bool    `json:"smoke"`
	When       string  `json:"when"`
}

// runRecord is one child run in a result set.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	result
	Segments *segmentStats `json:"goodput_segments,omitempty"`
}

// resultSet is the file the suite writes and -compare reads.
type resultSet struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

// runSuite runs every workload, each in its own child process: heap and
// goroutine state of the allocating workloads (SONET, RTL, UDP) would
// otherwise leak into the link workloads' timings.
func runSuite(seed uint64, seconds float64, trace int, smoke bool, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	passes := []int{0, 1}
	if trace >= 0 {
		passes = []int{trace}
	}
	cfg := fullConfig(seed, false, seconds)
	if smoke {
		cfg = smokeConfig(seed, false)
	}
	set := resultSet{Provenance: provenance{
		Seed: seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seconds: seconds, Segments: cfg.rounds,
		SegmentMS: float64(cfg.segLen) / float64(time.Millisecond), Smoke: smoke,
		When: time.Now().UTC().Format(time.RFC3339),
	}}
	for _, pass := range passes {
		for _, name := range workloadNames {
			args := []string{
				"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(pass),
			}
			if smoke {
				args = append(args, "-smoke")
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			raw, err := cmd.Output()
			if err != nil {
				stdout.Write(raw)
				return fmt.Errorf("%s (trace %d): %w", name, pass, err)
			}
			// The child's table is for the reader; its last two lines
			// are the segment quartiles and the result.
			lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
			if len(lines) < 2 {
				return fmt.Errorf("%s (trace %d): child printed no result", name, pass)
			}
			fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-2], "\n"))
			rec := runRecord{Workload: name, Trace: pass}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
				return fmt.Errorf("%s (trace %d): result line: %w", name, pass, err)
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec.Segments); err != nil {
				return fmt.Errorf("%s (trace %d): segment line: %w", name, pass, err)
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	if out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "results.json")
	fmt.Fprintln(stdout, "wrote", path)
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// commit names the checkout's HEAD, or "unknown" outside a git checkout.
func commit() string {
	raw, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(raw))
}

// loadSets reads a comma-separated list of result files.
func loadSets(list string) ([]resultSet, error) {
	var sets []resultSet
	for _, path := range strings.Split(list, ",") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var s resultSet
		err = json.NewDecoder(bufio.NewReader(f)).Decode(&s)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sets = append(sets, s)
	}
	return sets, nil
}
