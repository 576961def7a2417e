// Command perfbench is the repository benchmark: it serves coins the way a
// beacon consumer receives them and reports what the consumer and the
// operator pay, end to end, and — in a separate traced run — layer by
// layer. See README.md in this directory for the workloads, the metrics and
// what each layer metric is expected to move.
//
//	perfbench -workload gw-single -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit status 1 means a
// wrong coin was served (the result is still printed, with correct=false);
// exit status 3 means the run was invalid and nothing was reported.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

func main() {
	// An interrupted run stops the gateway and daemons it started before
	// exiting, and reports nothing.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// Exit statuses besides 0.
const (
	exitWrong   = 1 // a wrong coin was served
	exitError   = 2 // the benchmark could not run
	exitInvalid = 3 // the run violated a validity guard
)

// runDeadline bounds a whole invocation: the benchmark must exit within 180s.
const runDeadline = 170 * time.Second

// options are one invocation's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // beacongw binary built from this tree
	work     string // scratch directory for daemon state and span files
	smoke    bool   // fewest repetitions that still emit every metric
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: gw-single, gw-batch or daemon-emit")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generator the workload uses")
	fs.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced ladder and reports per-layer metrics")
	fs.StringVar(&o.bin, "beacongw", filepath.Join(".bench_build", "bin", "beacongw"), "beacongw binary built from this tree")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory for daemon state and span files")
	fs.BoolVar(&o.smoke, "smoke", false, "repeat set-up and daemon cycles as little as possible: checks that every metric is emitted, measures nothing steadily")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return exitError
	}
	o.trace = trace == 1
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	prov, err := newProvenance(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return exitError
	}
	var rec *spanRecorder
	if o.trace {
		rec = newSpanRecorder()
	}
	var out *outcome
	switch o.workload {
	case gwSingle.name:
		out, err = runGateway(ctx, o, gwSingle, rec)
	case gwBatchSpec.name:
		out, err = runGateway(ctx, o, gwBatchSpec, rec)
	case daemonEmit:
		out, err = runDaemon(ctx, o, rec)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", o.workload, gwSingle.name, gwBatchSpec.name, daemonEmit)
	}
	if err == nil {
		err = ctx.Err() // interrupted or out of time: what was measured is partial
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return exitError
	}
	return out.report(o, prov, rec, stdout, stderr)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metrics and their units; every workload reports all of them.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"coins_per_s":     "1/s",
	"lat_p50_ms":      "ms",
	"lat_p99_ms":      "ms",
	"cpu_ms_per_coin": "ms",
	"peak_rss_mb":     "MB",
}

// perLayerUnits are the traced run's metrics. Every traced run reports all
// of them; a layer that is not on the workload's path reports 0.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"beacongw.req_p50_us":          "us",
		"beacongw.self_p50_us":         "us",
		"multicell.draw_p50_us":        "us",
		"multicell.draw_p99_us":        "us",
		"multicell.self_p50_us":        "us",
		"multicell.shed_ratio":         "ratio",
		"beacon.draw_p50_us":           "us",
		"beacon.draw_p99_us":           "us",
		"beacon.blocked_ratio":         "ratio",
		"beacon.refills_per_kcoin":     "1/kcoin",
		"beacon.refill_ms":             "ms",
		"beacon.blocking_refills":      "count",
		"core.expose_us":               "us",
		"bw.decode_us":                 "us",
		"bw.decode_err_us":             "us",
		"core.mint_ms":                 "ms",
		"coingen.attempts_per_mint":    "count",
		"gf2k.mul_ns":                  "ns",
		"gf2k.inv_ns":                  "ns",
		"gf2k.muls_per_coin":           "count",
		"gf2k.invs_per_coin":           "count",
		"poly.interpolations_per_coin": "count",
		"poly.domain_hit_ratio":        "ratio",
		"simnet.round_us":              "us",
		"simnet.rounds_per_coin":       "count",
		"simnet.msgs_per_coin":         "count",
		"simnet.bytes_per_coin":        "B",
		"simnet.peer.round_us":         "us",
		"simnet.peer.demotions":        "count",
		"simnet.peer.reconnects":       "count",
		"beacon.daemon.emit_us":        "us",
		"beacon.daemon.refill_ms":      "ms",
		"beacon.daemon.refill_share":   "ratio",
		"loadgen.gen_lag_p99_ms":       "ms",
		"trace.untraced_lat_p50_ms":    "ms",
		"trace.traced_lat_p50_ms":      "ms",
		"trace.overhead_ratio":         "ratio",
	}
	for _, p := range phaseOrder {
		m["coingen.phase."+p+".rounds"] = "count"
		m["coingen.phase."+p+".bytes"] = "B"
		m["coingen.phase."+p+".field_ops"] = "count"
	}
	return m
}()

// outcome is one workload run, before reporting.
type outcome struct {
	values    map[string]float64 // metric name → value
	attempted int64
	failed    int64
	wrong     int64   // coins that differ from the reference: exit non-zero
	invalid   []error // validity guards that tripped: report nothing
	lines     []string
	ladder    func(w io.Writer)
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) notef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// report prints the human-readable lines, writes the spans, and prints the
// result line, returning the exit status.
func (out *outcome) report(o options, prov provenance, rec *spanRecorder, stdout, stderr io.Writer) int {
	units := endToEndUnits
	if o.trace {
		units = perLayerUnits
	}
	pj, _ := json.Marshal(prov) //nolint:errcheck // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	for _, l := range out.lines {
		fmt.Fprintln(stdout, l)
	}
	if out.ladder != nil {
		out.ladder(stdout)
	}
	if rec != nil {
		path := filepath.Join(o.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := rec.writeFile(path, prov); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return exitError
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rec.spans), path)
	}
	if len(out.invalid) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: run invalid, not reported: %v\n", o.workload, errors.Join(out.invalid...))
		return exitInvalid
	}
	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(units)),
	}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		v, ok := out.values[name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", o.workload, name)
			return exitError
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", name, v, units[name])
	}
	fmt.Fprintf(stdout, "  %-34s %14.6g ratio (failed %d / attempted %d)\n", "fail_ratio", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return exitError
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong coins served\n", o.workload, out.wrong)
		return exitWrong
	}
	return 0
}
