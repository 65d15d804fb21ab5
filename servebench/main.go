// Command servebench is the serving benchmark: it drives the layout
// service's HTTP handler in process, with closed-loop clients calling
// ServeHTTP directly, over seeded request lists, and reports end-to-end
// metrics or, with -trace 1, per-layer metrics. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	duration time.Duration // measured phase, seconds unless a test shortens it
	trace    bool
	workdir  string
	clients  int
	setups   int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload: cold-sweep, hot-hits or edit-score")
	fs.Int64Var(&o.seed, "seed", 1, "seed the request lists are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the disk tier and the span log")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintln(stderr, "servebench: need -trace 0|1 and -seconds >= 1")
		return 2
	}
	o.trace = trace == 1
	// One client: see README.md. setup_s is the median of three
	// set-ups.
	o.clients, o.setups = 1, 3
	o.duration = time.Duration(o.seconds) * time.Second
	w, err := generate(o.workload, o.seed, defaultSizes(o.workload, o.seconds))
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	if rep.FirstErr != nil {
		fmt.Fprintln(stderr, "servebench: first failure:", rep.FirstErr)
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
