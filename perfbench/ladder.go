package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/beacon"
	"repro/internal/bw"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/multicell"
	"repro/internal/obs"
	"repro/internal/obs/prom"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// The in-process ladder: each rung calls one layer's public functions
// directly, with a span around every call, so a layer's self time is its
// rung's median minus the rung below it. Rungs that carry a workload's
// traffic (multicell, beacon) replay that workload's request mix and seed;
// the rest (core, simnet, bw, gf2k) are on every path and run at fixed
// sizes.

// rungMaxRounds lifts simnet's default round budget, which exists to catch
// diverging protocols in tests, for rungs that run many rounds.
const rungMaxRounds = 1 << 40

// protoCost is the program's own cost counters over a rung, per delivered
// coin.
type protoCost struct {
	coins int64
	diff  metrics.Snapshot
}

func (c protoCost) put(m map[string]float64) {
	m["gf2k.muls_per_coin"] = perCoin(c.diff.FieldMuls, c.coins)
	m["gf2k.invs_per_coin"] = perCoin(c.diff.FieldInvs, c.coins)
	m["poly.interpolations_per_coin"] = perCoin(c.diff.Interpolations, c.coins)
	m["poly.domain_hit_ratio"] = ratio(float64(c.diff.DomainHits), float64(c.diff.DomainHits+c.diff.DomainMisses))
	m["simnet.msgs_per_coin"] = perCoin(c.diff.Messages, c.coins)
	m["simnet.bytes_per_coin"] = perCoin(c.diff.Bytes, c.coins)
}

// multicellRung replays spec's mix on an in-process multicell.Cluster built
// like the gateway's, with the cost counters attached. It reports the
// router draw spans and the protocol cost per coin.
func multicellRung(ctx context.Context, spec gwSpec, seed int64, dur time.Duration, rec *spanRecorder) (loadResult, protoCost, error) {
	var ctr metrics.Counters
	cl, err := multicell.New(multicell.Config{
		Cells:    spec.cells,
		Cell:     gatewayCellConfig(&ctr),
		CellRand: gatewayCellRand(seed),
	})
	if err != nil {
		return loadResult{}, protoCost{}, err
	}
	tenants := spec.tenants(seed)
	draw := func(ctx context.Context, client int) (int, int64, []gf2k.Element, error) {
		b, err := cl.DrawN(ctx, tenants[client], spec.perReq)
		return b.Cell, b.Seq, b.Vals, err
	}
	before := ctr.Snapshot()
	root := rec.open("ladder.multicell", 0)
	lr := runLoad(ctx, spec, clientConns, dur, draw, rec, "multicell.draw", root, nil)
	rec.close(root)
	cost := protoCost{coins: lr.coins, diff: metrics.Diff(before, ctr.Snapshot())}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := cl.Close(cctx); err != nil {
		return lr, cost, err
	}
	return lr, cost, nil
}

// beaconRung replays spec's mix on standalone beacon.Services, one per
// gateway cell and seeded like it, with each service's metrics bundle
// attached: the cells without the router. Client c draws from service
// c mod cells, which is where the router homes it.
func beaconRung(ctx context.Context, spec gwSpec, seed int64, dur time.Duration, rec *spanRecorder) (loadResult, beacon.Stats, float64, error) {
	cellRand := gatewayCellRand(seed)
	svcs := make([]*beacon.Service, spec.cells)
	mets := make([]*beacon.ServiceMetrics, spec.cells)
	defer func() {
		cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		for _, svc := range svcs {
			if svc != nil {
				svc.Close(cctx) //nolint:errcheck // the rung's numbers are taken before close; a close error cannot change them
			}
		}
	}()
	for c := range svcs {
		cfg := gatewayCellConfig(nil)
		mets[c] = beacon.NewServiceMetrics(prom.NewRegistry())
		cfg.Metrics = mets[c]
		cfg.Rand = func(player int) io.Reader { return cellRand(c, player) }
		svc, err := beacon.New(cfg)
		if err != nil {
			return loadResult{}, beacon.Stats{}, 0, err
		}
		svcs[c] = svc
	}
	draw := func(ctx context.Context, client int) (int, int64, []gf2k.Element, error) {
		c := client % spec.cells
		vals, seq, err := svcs[c].DrawN(ctx, spec.perReq)
		return c, seq, vals, err
	}
	root := rec.open("ladder.beacon", 0)
	lr := runLoad(ctx, spec, clientConns, dur, draw, rec, "beacon.draw", root, nil)
	rec.close(root)
	var st beacon.Stats
	var refillSum float64
	var refillCount uint64
	for c, svc := range svcs {
		s := svc.Stats()
		st.Draws += s.Draws
		st.BlockedDraws += s.BlockedDraws
		st.Refills += s.Refills
		st.BlockingRefills += s.BlockingRefills
		h := mets[c].RefillDuration.With("pipelined")
		refillSum += h.Sum()
		refillCount += h.Count()
	}
	return lr, st, 1e3 * ratio(refillSum, float64(refillCount)), nil
}

// coingenPhases maps the protocol's own span names onto the phase labels
// the benchmark reports (the paper's Fig. 4–6 steps).
var coingenPhases = map[string]string{
	"bitgen/deal":    "deal",
	"bitgen/gamma":   "gamma",
	"coingen/clique": "clique",
	"gradecast":      "gradecast",
	"ba/phase-king":  "ba",
	"coin-expose":    "expose",
}

// phaseOrder is the report order of coingenPhases' labels.
var phaseOrder = []string{"deal", "gamma", "clique", "gradecast", "ba", "expose"}

// coreRungMints and coreRungExposes size the core rung: enough Coin-Gen
// runs for a stable median, and exposures drawn from the coins they mint.
const (
	coreRungMints   = 12
	coreRungExposes = 600
)

// coreRung runs core.Mint and core.Generator.Expose for all n players over
// an in-memory simnet network, timing player 0's calls, and then one more
// Mint with the protocol tracer attached to attribute rounds, bytes and
// field operations to Coin-Gen's phases.
func coreRung(seed int64, batch int, rec *spanRecorder, out map[string]float64) error {
	cfg := core.Config{Field: gf2k.MustNew(coinBits), N: gwN, T: gwT, BatchSize: batch, Threshold: core.DefaultThreshold}
	gens, err := core.SetupTrusted(cfg, batch, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	root := rec.open("ladder.core", 0)
	attempts := make([]int, gwN)
	res := simnet.Run(simnet.New(gwN, simnet.WithMaxRounds(rungMaxRounds)), playerFuncs(func(nd *simnet.Node) error {
		i := nd.Index()
		rnd := rand.New(rand.NewSource(seed + int64(i)*1009))
		for m := range coreRungMints {
			t0 := time.Now()
			mr, err := core.Mint(cfg, nd, gens[i].Store(), rnd)
			if err != nil {
				return err
			}
			if i == 0 {
				rec.add("core.mint", root, int64(m+1), t0, time.Now())
			}
			attempts[i] += mr.Attempts
			if err := gens[i].Absorb(mr); err != nil {
				return err
			}
		}
		for e := range coreRungExposes {
			t0 := time.Now()
			if _, err := gens[i].Expose(nd); err != nil {
				return err
			}
			if i == 0 {
				rec.add("core.expose", root, int64(e+1), t0, time.Now())
			}
		}
		return nil
	}))
	rec.close(root)
	if err := firstErr(res); err != nil {
		return fmt.Errorf("core rung: %w", err)
	}
	out["core.mint_ms"] = median(rec.durations("core.mint")) / 1e3
	out["core.expose_us"] = median(rec.durations("core.expose"))
	out["coingen.attempts_per_mint"] = float64(attempts[0]) / coreRungMints
	return phaseRung(seed, batch, out)
}

// phaseRung runs one traced Coin-Gen and reports, per phase, the rounds it
// took, the bytes every player sent in those rounds, and player 0's own
// field operations. Counting player 0's operations on player 0's counters,
// and bytes by round, keeps the attribution exact: a shared counter
// snapshotted at one player's span edges would also catch whatever work
// other players happened to be doing at that instant.
func phaseRung(seed int64, batch int, out map[string]float64) error {
	ctrs := make([]metrics.Counters, gwN)
	ring := obs.NewRing(0)
	nw := simnet.New(gwN, simnet.WithTracer(obs.New(&ctrs[0], ring)))
	cfg := core.Config{Field: gf2k.MustNew(coinBits), N: gwN, T: gwT, BatchSize: batch, Threshold: core.DefaultThreshold}
	gens, err := core.SetupTrusted(cfg, batch, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	res := simnet.Run(nw, playerFuncs(func(nd *simnet.Node) error {
		i := nd.Index()
		pcfg := cfg
		pcfg.Field = cfg.Field.WithCounters(&ctrs[i])
		pcfg.Counters = &ctrs[i]
		for _, b := range gens[i].Store().Batches() {
			b.Counters = &ctrs[i] // the seed coins Coin-Gen exposes
		}
		_, err := core.Mint(pcfg, nd, gens[i].Store(), rand.New(rand.NewSource(seed+int64(i)*1009)))
		return err
	}))
	if err := firstErr(res); err != nil {
		return fmt.Errorf("phase rung: %w", err)
	}
	events := ring.Events()
	sentIn := func(lo, hi int) int64 { // bytes all players sent in rounds [lo, hi)
		var b int64
		for _, e := range events {
			switch {
			case e.Round < lo || e.Round >= hi:
			case e.Type == obs.EvSend:
				b += e.Bytes
			case e.Type == obs.EvBroadcast:
				b += gwN * e.Bytes // as simnet's counters charge a broadcast
			}
		}
		return b
	}
	for _, p := range phaseOrder {
		for _, k := range []string{"rounds", "bytes", "field_ops"} {
			out["coingen.phase."+p+"."+k] = 0
		}
	}
	for _, row := range obs.PhaseSummary(events, 0) {
		p, ok := coingenPhases[row.Name]
		if !ok {
			continue
		}
		out["coingen.phase."+p+".rounds"] += float64(row.Rounds())
		out["coingen.phase."+p+".bytes"] += float64(sentIn(row.BeginRound, row.EndRound))
		out["coingen.phase."+p+".field_ops"] += float64(row.FieldOps())
	}
	return nil
}

// simnetRungRounds is the number of bare lockstep rounds timed.
const simnetRungRounds = 3000

// simnetRung times bare in-memory lockstep rounds: every player sends one
// 4-byte message to every player and ends the round.
func simnetRung(rec *spanRecorder, out map[string]float64) error {
	root := rec.open("ladder.simnet", 0)
	payload := []byte{1, 2, 3, 4}
	res := simnet.Run(simnet.New(gwN, simnet.WithMaxRounds(rungMaxRounds)), playerFuncs(func(nd *simnet.Node) error {
		for r := range simnetRungRounds {
			t0 := time.Now()
			nd.SendAll(payload)
			if _, err := nd.EndRound(); err != nil {
				return err
			}
			if nd.Index() == 0 {
				rec.add("simnet.round", root, int64(r+1), t0, time.Now())
			}
		}
		return nil
	}))
	rec.close(root)
	if err := firstErr(res); err != nil {
		return fmt.Errorf("simnet rung: %w", err)
	}
	out["simnet.round_us"] = median(rec.durations("simnet.round"))
	return nil
}

// peerRungRounds is the number of bare peer-mesh rounds timed.
const peerRungRounds = 2000

// peerRung times bare lockstep rounds over the authenticated TCP peer
// transport: n in-process simnet.NewPeer networks on loopback, each player
// sending one 4-byte message to every player per round.
func peerRung(seed int64, rec *spanRecorder, out map[string]float64) error {
	pc, err := loopbackPeers(seed, gwN)
	if err != nil {
		return err
	}
	nws := make([]*simnet.Network, gwN)
	defer func() {
		for _, nw := range nws {
			if nw != nil {
				nw.Close()
			}
		}
	}()
	for i := range nws {
		if nws[i], err = simnet.NewPeer(pc, i, simnet.WithMaxRounds(rungMaxRounds)); err != nil {
			return err
		}
	}
	for _, nw := range nws {
		if err := nw.WaitPeers(gwN-1, 30*time.Second); err != nil {
			return err
		}
	}
	for _, nw := range nws {
		if err := nw.StartAt(0); err != nil {
			return err
		}
	}
	root := rec.open("ladder.simnet.peer", 0)
	errs := make([]error, gwN)
	var wg sync.WaitGroup
	payload := []byte{1, 2, 3, 4}
	for i, nw := range nws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd := nw.Node(i)
			for r := range peerRungRounds {
				t0 := time.Now()
				nd.SendAll(payload)
				if _, err := nd.EndRound(); err != nil {
					errs[i] = fmt.Errorf("player %d round %d: %w", i, r, err)
					return
				}
				if i == 0 {
					rec.add("simnet.peer.round", root, int64(r+1), t0, time.Now())
				}
			}
		}()
	}
	wg.Wait()
	rec.close(root)
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("peer rung: %w", err)
	}
	out["simnet.peer.round_us"] = median(rec.durations("simnet.peer.round"))
	return nil
}

// fieldRung times bw.Decode as Coin-Expose calls it (3t+1 shares of a
// degree-t sharing, up to t errors), with and without t wrong shares, and
// chained gf2k multiplications and inversions.
func fieldRung(seed int64, rec *spanRecorder, out map[string]float64) error {
	const decodes, reps, muls, invs = 2000, 7, 200_000, 20_000
	f := gf2k.MustNew(coinBits)
	rnd := rand.New(rand.NewSource(seed))
	secret, err := f.Rand(rnd)
	if err != nil {
		return err
	}
	p, err := poly.Random(f, gwT, secret, rnd)
	if err != nil {
		return err
	}
	xs := make([]gf2k.Element, 3*gwT+1)
	for i := range xs {
		if xs[i], err = f.ElementFromID(i + 1); err != nil {
			return err
		}
	}
	ys := poly.EvalMany(f, p, xs)
	bad := append([]gf2k.Element(nil), ys...)
	bad[len(bad)-1] ^= 1
	root := rec.open("ladder.field", 0)
	for _, c := range []struct {
		name string
		ys   []gf2k.Element
	}{{"bw.decode", ys}, {"bw.decode_err", bad}} {
		for i := range decodes {
			t0 := time.Now()
			r, err := bw.Decode(f, xs, c.ys, gwT, gwT, nil)
			end := time.Now()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			if poly.Eval(f, r.Poly, 0) != secret {
				return fmt.Errorf("%s decoded the wrong secret", c.name)
			}
			rec.add(c.name, root, int64(i+1), t0, end)
		}
		out[c.name+"_us"] = median(rec.durations(c.name))
	}
	a, b := secret|1, gf2k.Element(0x9e3779b9)
	for i := range reps {
		t0 := time.Now()
		for range muls {
			a = f.Mul(a, b)
		}
		rec.add("gf2k.mul_batch", root, int64(i+1), t0, time.Now())
		t0 = time.Now()
		for range invs {
			a = f.Inv(a | 1)
		}
		rec.add("gf2k.inv_batch", root, int64(i+1), t0, time.Now())
	}
	rec.close(root)
	fieldSink = a
	out["gf2k.mul_ns"] = median(rec.durations("gf2k.mul_batch")) * 1e3 / muls
	out["gf2k.inv_ns"] = median(rec.durations("gf2k.inv_batch")) * 1e3 / invs
	return nil
}

// fieldSink keeps the timed field loops from being optimised away.
var fieldSink gf2k.Element

// playerFuncs runs the same code on every player of an n = gwN network.
func playerFuncs(fn func(nd *simnet.Node) error) []simnet.PlayerFunc {
	fns := make([]simnet.PlayerFunc, gwN)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) { return nil, fn(nd) }
	}
	return fns
}

func firstErr(res []simnet.PlayerResult) error {
	for i, r := range res {
		if r.Err != nil {
			return fmt.Errorf("player %d: %w", i, r.Err)
		}
	}
	return nil
}
