// Command fodperf is the repository's end-to-end benchmark. It starts an
// in-process serve.Server configured exactly as fodserve's defaults on a
// real loopback listener, drives it with closed-loop HTTP clients for a
// fixed window, checks every answer after the window against a reference
// index built with the other engine (plus naive-oracle spot checks), and
// prints one JSON result line as the last line of standard output.
//
//	go build -o fodperf . && ./fodperf -workload warm-read -seed 1 -seconds 12 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a separate traced run (see
// README.md for the layer → metric → end-to-end metric map).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same graphs, keys and tuples")
	seconds := flag.Int("seconds", 12, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory the span dump of a traced run is written to")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fodperf: want -workload %s, -seconds ≥ 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		scale:  1,
		outDir: *out,
	}
	res, err := run(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fodperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fodperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
