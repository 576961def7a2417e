package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// daemonEmit is the in-process daemon cluster workload's name.
const daemonEmit = "daemon-emit"

// setupRuns is how many times a gateway run execs beacongw to time set-up;
// the reported setup_s is their median and the last one serves the load.
const setupRuns = 21

// genLagLimitMS is the open-loop generator's allowed p99 lateness: ten
// arrival intervals at gw-single's rate. Latency is timed from when a
// request was due, so a generator running later than this would charge the
// benchmark's own scheduling to the system; below it, lateness is the
// scheduling noise client and server share on one machine, and is reported.
const genLagLimitMS = 5.0

// runGateway runs a gateway workload: untraced, it reports the end-to-end
// metrics; traced, the binary leg plus the in-process ladder.
func runGateway(ctx context.Context, o options, spec gwSpec, rec *spanRecorder) (*outcome, error) {
	// This process is only the client here. Its own collections pause it
	// mid-request and show up in the latencies it times; collect a quarter
	// as often. beacongw keeps its defaults: no environment variable changes.
	debug.SetGCPercent(400)
	out := newOutcome()
	tenants := spec.tenants(o.seed)
	dur := time.Duration(o.seconds) * time.Second
	runs := setupRuns
	if o.trace || o.smoke {
		runs = 1
	}
	var (
		g      *gateway
		chks   []*coinChecker
		setups []float64
	)
	defer func() {
		if g != nil {
			g.stop() //nolint:errcheck // error path only; the success path stops and checks it
		}
	}()
	for i := range runs {
		chk := newCoinChecker(spec.cells)
		chks = append(chks, chk)
		t0 := time.Now()
		var err error
		if g, err = startGateway(o.bin, spec, o.seed); err != nil {
			return nil, err
		}
		cell, seq, vals, err := g.draw(spec, tenants)(ctx, 0)
		if err != nil {
			return nil, fmt.Errorf("first coin: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		out.attempted++
		if err := chk.record(cell, seq, vals); err != nil {
			return nil, err
		}
		if i < runs-1 {
			err := g.stop()
			g = nil
			if err != nil {
				return nil, err
			}
		}
	}
	chk := chks[len(chks)-1]
	pid := g.cmd.Process.Pid
	draw := g.draw(spec, tenants)

	var lr, untraced loadResult
	var before, after scrape
	cpu0, _, err := procStat(pid)
	if err != nil {
		return nil, err
	}
	client0 := selfCPU()
	if o.trace {
		untraced = runLoad(ctx, spec, clientConns, dur/2, draw, nil, "", 0, chk)
		if before, err = g.scrape(); err != nil {
			return nil, err
		}
		root := rec.open("binary", 0)
		lr = runLoad(ctx, spec, clientConns, dur/2, draw, rec, "beacongw.request", root, chk)
		rec.close(root)
		if after, err = g.scrape(); err != nil {
			return nil, err
		}
	} else {
		lr = runLoad(ctx, spec, clientConns, dur, draw, nil, "", 0, chk)
	}
	cpu1, peakMB, err := procStat(pid)
	if err != nil {
		return nil, err
	}
	clientCPU := selfCPU() - client0
	err = g.stop()
	g = nil
	if err != nil {
		return nil, err
	}

	out.attempted += lr.attempted + untraced.attempted
	out.failed += lr.failed + untraced.failed
	if lr.firstErr != nil || untraced.firstErr != nil {
		out.notef("first failure: %v", errors.Join(lr.firstErr, untraced.firstErr))
	}
	tv := time.Now()
	ref, err := referenceStreams(o.seed, spec.cells, chk.top())
	if err != nil {
		return nil, err
	}
	for _, c := range chks {
		cr, err := c.verify(ref)
		if err != nil {
			return nil, err
		}
		// Duplicates are already counted as failed requests.
		out.failed += cr.missing + cr.wrong
		out.wrong += cr.wrong
		if c == chk {
			out.notef("checked %d coins against the single-cell reference: %d duplicate, %d missing, %d wrong", cr.coins, cr.dups, cr.missing, cr.wrong)
		}
	}
	out.notef("reference check took %.2f s", time.Since(tv).Seconds())
	if len(lr.genLag) > 0 {
		lag := percentile(lr.genLag, 99)
		out.notef("open-loop generator: %.0f req/s offered, lateness p50 %.4f ms, p99 %.4f ms (limit %.1f ms)",
			spec.rate, median(lr.genLag), lag, genLagLimitMS)
		if lag > genLagLimitMS {
			out.invalid = append(out.invalid, fmt.Errorf("open-loop generator p99 lateness %.3f ms > %.1f ms", lag, genLagLimitMS))
		}
	}
	out.notef("CPU over the window: beacongw %.0f ms, this client %.0f ms", ms(cpu1-cpu0), ms(clientCPU))
	tail := highestTail(len(lr.lats))
	out.notef("latency samples: %d requests (highest percentile with ≥%d beyond: p%g)", len(lr.lats), minBeyond, tail)

	if !o.trace {
		if tail < 99 {
			out.invalid = append(out.invalid, fmt.Errorf("%d latency samples cannot support lat_p99_ms", len(lr.lats)))
		}
		out.values["setup_s"] = median(setups)
		out.values["coins_per_s"] = lr.coinRate(spec)
		out.values["lat_p50_ms"] = median(lr.lats)
		out.values["lat_p99_ms"] = chunkedP99(lr.lats)
		out.values["cpu_ms_per_coin"] = ratio(ms(cpu1-cpu0), float64(lr.coins))
		out.values["peak_rss_mb"] = peakMB
		out.notef("setup_s runs: %v", setups)
		return out, nil
	}
	return out, gatewayLadder(ctx, o, spec, rec, out, untraced, lr, before, after)
}

// gatewayLadder fills a gateway workload's per-layer metrics from the binary
// leg (request spans and counter scrapes) and the in-process ladder.
func gatewayLadder(ctx context.Context, o options, spec gwSpec, rec *spanRecorder, out *outcome, untraced, traced loadResult, before, after scrape) error {
	m := out.values
	dur := time.Duration(o.seconds) * time.Second
	mc, cost, err := multicellRung(ctx, spec, o.seed, dur/2, rec)
	if err != nil {
		return fmt.Errorf("multicell rung: %w", err)
	}
	bl, bst, refillMS, err := beaconRung(ctx, spec, o.seed, dur/2, rec)
	if err != nil {
		return fmt.Errorf("beacon rung: %w", err)
	}
	if mc.failed+bl.failed > 0 {
		return fmt.Errorf("ladder draws failed: %v", errors.Join(mc.firstErr, bl.firstErr))
	}
	if err := coreRung(o.seed, gwBatch, rec, m); err != nil {
		return err
	}
	if err := simnetRung(rec, m); err != nil {
		return err
	}
	if err := fieldRung(o.seed, rec, m); err != nil {
		return err
	}

	req := median(rec.durations("beacongw.request"))
	mcDraw := rec.durations("multicell.draw")
	bDraw := rec.durations("beacon.draw")
	m["beacongw.req_p50_us"] = req
	m["multicell.draw_p50_us"] = median(mcDraw)
	m["multicell.draw_p99_us"] = percentile(mcDraw, 99)
	m["beacon.draw_p50_us"] = median(bDraw)
	m["beacon.draw_p99_us"] = percentile(bDraw, 99)
	m["beacongw.self_p50_us"] = selfTime(req, m["multicell.draw_p50_us"])
	m["multicell.self_p50_us"] = selfTime(m["multicell.draw_p50_us"], m["beacon.draw_p50_us"])

	// Counter hooks of the served binary, over the traced window.
	m["multicell.shed_ratio"] = ratio(after.sum("multicell_shed_total")-before.sum("multicell_shed_total"),
		after.sum("multicell_routed_draws_total")-before.sum("multicell_routed_draws_total"))
	d0, c0, b0, r0 := before.cellTotals()
	d1, c1, b1, r1 := after.cellTotals()
	m["beacon.blocked_ratio"] = ratio(float64(b1-b0), float64(d1-d0))
	m["beacon.refills_per_kcoin"] = 1e3 * ratio(float64(r1-r0), float64(c1-c0))
	m["beacon.refill_ms"] = refillMS
	m["beacon.blocking_refills"] = float64(bst.BlockingRefills)
	if bst.BlockingRefills > 0 {
		out.invalid = append(out.invalid, fmt.Errorf("%d blocking refills in the beacon replay", bst.BlockingRefills))
	}

	cost.put(m)
	m["simnet.rounds_per_coin"] = perCoin(cost.diff.Rounds, cost.coins)
	for _, k := range []string{"simnet.peer.round_us", "simnet.peer.demotions", "simnet.peer.reconnects",
		"beacon.daemon.emit_us", "beacon.daemon.refill_ms", "beacon.daemon.refill_share"} {
		m[k] = 0 // the daemon path is not on a gateway workload
	}
	m["loadgen.gen_lag_p99_ms"] = 0
	if len(traced.genLag) > 0 {
		m["loadgen.gen_lag_p99_ms"] = percentile(slices.Concat(untraced.genLag, traced.genLag), 99)
	}
	base := median(untraced.lats)
	m["trace.untraced_lat_p50_ms"] = base
	m["trace.traced_lat_p50_ms"] = median(traced.lats)
	m["trace.overhead_ratio"] = ratio(m["trace.traced_lat_p50_ms"], base) - 1

	cpr := float64(spec.perReq)
	rows := []ladderRow{
		{"beacongw", m["beacongw.self_p50_us"], "beacongw.request p50 − multicell.draw p50"},
		{"multicell", m["multicell.self_p50_us"], "multicell.draw p50 − beacon.draw p50"},
		{"beacon", selfTime(m["beacon.draw_p50_us"], cpr*m["core.expose_us"]), fmt.Sprintf("beacon.draw p50 − %g × core.expose p50", cpr)},
		{"core/coin", cpr * selfTime(m["core.expose_us"], m["simnet.round_us"], m["bw.decode_us"]), fmt.Sprintf("%g × (core.expose − simnet.round − bw.decode) p50", cpr)},
		{"simnet", cpr * m["simnet.round_us"], fmt.Sprintf("%g × simnet.round p50 (in-memory)", cpr)},
		{"bw/poly/gf2k", cpr * m["bw.decode_us"], fmt.Sprintf("%g × bw.decode p50", cpr)},
	}
	out.ladder = func(w io.Writer) { writeLadder(w, spec.name, base, rows) }
	out.notef("beacon rung: %d draws, %d blocked, %d refills; multicell rung: %d coins", bst.Draws, bst.BlockedDraws, bst.Refills, cost.coins)
	return nil
}

// minDaemonCycles is the fewest daemon-emit cycles a run makes, so setup_s,
// coins_per_s and cpu_ms_per_coin are medians of at least this many.
const minDaemonCycles = 5

// minCycles is the fewest daemon-emit cycles this run makes: a traced run
// needs an untraced cycle and a traced one.
func (o options) minCycles() int {
	switch {
	case !o.smoke:
		return minDaemonCycles
	case o.trace:
		return 2
	}
	return 1
}

// runDaemon runs daemon-emit: fresh 7-daemon clusters, one after another,
// each to emitTarget coins, until the window is spent. A traced run
// attaches the program's counters and metrics to every other cycle; the
// untraced ones are the overhead's base.
func runDaemon(ctx context.Context, o options, rec *spanRecorder) (*outcome, error) {
	out := newOutcome()
	work, err := daemonWorkDir(o.work)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var cycles []*daemonCycle
	for c := 0; ctx.Err() == nil; c++ {
		// A traced run alternates untraced and traced cycles, so the tracing
		// overhead compares medians over both kinds.
		traced := o.trace && c%2 == 1
		// Start every cycle from the same heap: the previous cycle's
		// daemons are garbage, and a heap grown by them would pace this
		// cycle's collections differently from the first one's.
		runtime.GC()
		t0 := time.Now()
		dc, err := runDaemonCycle(ctx, work, o.seed, traced, rec, c)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, dc)
		out.attempted += emitTarget
		out.failed += dc.failed
		if dc.firstEr != nil {
			out.notef("cycle %d: %v", c, dc.firstEr)
			break
		}
		if !bytes.Equal(dc.log, cycles[0].log) {
			out.wrong++
			out.notef("cycle %d: public log differs from cycle 0's under the same seed", c)
		}
		if len(cycles) >= o.minCycles() && time.Since(start)+time.Since(t0) > dur {
			break
		}
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("%d daemon failures, first: %v", out.failed, cycles[len(cycles)-1].firstEr)
	}

	var setups, gaps, tracedGaps, rates, cpus []float64
	for i, dc := range cycles {
		setups = append(setups, dc.setup.Seconds())
		if o.trace && i%2 == 1 {
			tracedGaps = append(tracedGaps, dc.gaps...)
			continue
		}
		gaps = append(gaps, dc.gaps...)
		rates = append(rates, float64(len(dc.gaps))/dc.window.Seconds())
		cpus = append(cpus, ms(dc.cpu)/float64(len(dc.gaps)))
	}
	out.notef("by cycle: coins_per_s %.1f, cpu_ms_per_coin %.3f", rates, cpus)
	_, peakMB, err := procStat(os.Getpid())
	if err != nil {
		return nil, err
	}
	tail := highestTail(len(gaps))
	out.notef("%d cycles of %d coins; %d gaps (highest percentile with ≥%d beyond: p%g); setup_s runs: %v",
		len(cycles), emitTarget, len(gaps), minBeyond, tail, setups)
	if !o.trace {
		if tail < 99 {
			out.invalid = append(out.invalid, fmt.Errorf("%d gaps cannot support lat_p99_ms", len(gaps)))
		}
		out.values["setup_s"] = median(setups)
		out.values["coins_per_s"] = median(rates)
		out.values["lat_p50_ms"] = median(gaps)
		out.values["lat_p99_ms"] = chunkedP99(gaps)
		out.values["cpu_ms_per_coin"] = median(cpus)
		out.values["peak_rss_mb"] = peakMB
		return out, nil
	}
	return out, daemonLadder(o, rec, out, cycles, gaps, tracedGaps)
}

// daemonLadder fills daemon-emit's per-layer metrics from the traced
// cycles' counter hooks and the workload-independent rungs.
func daemonLadder(o options, rec *spanRecorder, out *outcome, cycles []*daemonCycle, untraced, traced []float64) error {
	m := out.values
	// Batch 64 is the daemon default (beacon.CoreConfig).
	if err := coreRung(o.seed, 64, rec, m); err != nil {
		return err
	}
	if err := simnetRung(rec, m); err != nil {
		return err
	}
	if err := fieldRung(o.seed, rec, m); err != nil {
		return err
	}
	if err := peerRung(o.seed, rec, m); err != nil {
		return err
	}
	for _, k := range []string{"beacongw.req_p50_us", "beacongw.self_p50_us",
		"multicell.draw_p50_us", "multicell.draw_p99_us", "multicell.self_p50_us", "multicell.shed_ratio",
		"beacon.draw_p50_us", "beacon.draw_p99_us", "beacon.blocked_ratio", "beacon.refills_per_kcoin",
		"beacon.refill_ms", "beacon.blocking_refills", "loadgen.gen_lag_p99_ms"} {
		m[k] = 0 // the gateway, router and Service executive are not on the daemon path
	}

	// Network counts must repeat exactly from cycle to cycle. Field and
	// interpolation counts may not: what the process-wide interpolation-
	// domain cache holds depends on earlier cycles, so the first traced
	// cycle is the one reported.
	dc := cycles[1]
	for c := 3; c < len(cycles); c += 2 {
		a, b := dc.cost, cycles[c].cost
		if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Bytes != b.Bytes {
			out.notef("network counts differ between traced cycles 1 and %d: %v vs %v", c, a, b)
		}
	}
	cost := protoCost{coins: emitTarget, diff: dc.cost}
	cost.put(m)
	// Every daemon counts its own rounds into the shared counters.
	m["simnet.rounds_per_coin"] = float64(dc.cost.Rounds) / gwN / emitTarget
	out.notef("protocol counts per cycle (all %d players): %v", gwN, dc.cost)

	var roundSum, roundCount, demotions, reconnects float64
	for i, samples := range dc.peer {
		for _, s := range samples {
			switch s.Name {
			case "simnet_peer_demotions_total":
				demotions += s.Value
			case "simnet_peer_reconnects_total":
				reconnects += s.Value
			case "simnet_round_duration_seconds_sum":
				if i == 0 {
					roundSum = s.Value
				}
			case "simnet_round_duration_seconds_count":
				if i == 0 {
					roundCount = s.Value
				}
			}
		}
	}
	out.notef("player 0 EndRound over the whole cycle (exposure and refill rounds): mean %.1f us over %.0f rounds",
		1e6*ratio(roundSum, roundCount), roundCount)
	m["simnet.peer.demotions"] = demotions
	m["simnet.peer.reconnects"] = reconnects
	em, rf := dc.emitMet.EmitLatency, dc.emitMet.RefillDuration
	m["beacon.daemon.emit_us"] = 1e6 * ratio(em.Sum()-rf.Sum(), float64(em.Count()-rf.Count()))
	m["beacon.daemon.refill_ms"] = 1e3 * ratio(rf.Sum(), float64(rf.Count()))
	m["beacon.daemon.refill_share"] = ratio(rf.Sum(), em.Sum())

	base := median(untraced)
	m["trace.untraced_lat_p50_ms"] = base
	m["trace.traced_lat_p50_ms"] = median(traced)
	m["trace.overhead_ratio"] = ratio(m["trace.traced_lat_p50_ms"], base) - 1

	rows := []ladderRow{
		{"beacon.daemon", selfTime(m["beacon.daemon.emit_us"], m["simnet.peer.round_us"], m["bw.decode_us"]), "mean exposure-only emit − simnet.peer.round p50 − bw.decode p50"},
		{"simnet.peer", m["simnet.peer.round_us"], "bare peer-mesh round p50"},
		{"bw/poly/gf2k", m["bw.decode_us"], "bw.decode p50"},
		{"coingen", 1e6 * rf.Sum() / emitTarget, "inline refill time / coins (amortized)"},
	}
	out.ladder = func(w io.Writer) { writeLadder(w, daemonEmit, base, rows) }
	return nil
}
