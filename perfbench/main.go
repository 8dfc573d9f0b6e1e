// Command perfbench is the repository's benchmark: one invocation runs
// one named workload at one seed, prints every metric by name with its
// unit, checks that the answers are correct, and ends with a one-line
// JSON result. See README.md in this directory for the metric map and
// the reasons behind each workload.
//
//	bash perfbench/run.sh --workload scenarios-cold --seed 1 --seconds 10 --trace 0
//
// The benchmark drives the program only through its public Go surface
// (core, store, stream, shard and server.Server.ServeHTTP). Requests
// are real *http.Request values handed to the handler in-process, so no
// loopback socket sits in front of the program; only the coordinator's
// hop to its shards is HTTP, because that hop is the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	authors  int    // corpus size: defaultAuthors, smaller in the tests
	out      string // directory for spans, run records and temp files
}

// defaultAuthors is the corpus size every workload uses: large enough
// that set-up is a multi-second phase that repeats steadily.
const defaultAuthors = 25000

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{authors: defaultAuthors}
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "seed of the generated corpus, requests and events")
	fs.IntVar(&opt.seconds, "seconds", 10, "measured work, in seconds of this benchmark's reference host")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&opt.out, "out", ".bench_build/perfbench-out", "directory for span dumps, run records and temporary stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if opt.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	res, err := run(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and assembles its result. A failed
// correctness check is an error: the caller exits nonzero without
// printing a result.
func run(opt options, stdout io.Writer) (*result, error) {
	wl, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	b, err := newBench(opt, stdout)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	b.printFacts()
	if err := wl(b); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	defs, vals := endToEnd, b.e2e
	if opt.trace {
		defs, vals = perLayer, b.layer
	}
	res := &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", opt.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"scenarios-cold": runCold,
	"ingest-live":    runIngest,
	"fleet-2shard":   runFleet,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
