package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/beacon"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/multicell"
	"repro/internal/obs/prom"
)

// Shipped beacongw defaults (cmd/beacongw flags). The reference replay and
// the in-process ladder rebuild the gateway's cells from these; a change to
// the gateway's defaults shows up as wrong coins, not as silently different
// load.
const (
	gwN         = 7
	gwT         = 1
	coinBits    = 32
	gwBatch     = 96
	gwHighWater = 64
	gwQueue     = 256
)

// clientConns is the number of HTTP connections (and client goroutines) a
// gateway workload uses: one per vCPU of the 2-vCPU reference machine.
const clientConns = 2

// gwSpec is one gateway workload.
type gwSpec struct {
	name   string
	cells  int
	perReq int     // coins per request: 1 is GET /v1/coin, more is GET /v1/coins?n=
	rate   float64 // open-loop arrivals per second; 0 is a closed loop
}

var (
	// gwSingle: open loop at a third of the closed-loop capacity of a
	// 1-cell gateway with two connections at the parent commit (≈5.5k
	// req/s, and 6.5k–7.9k req/s on a 2-vCPU VM). At half that capacity
	// the run-to-run spread of lat_p99_ms over ten runs exceeded its 0.25
	// bound.
	gwSingle = gwSpec{name: "gw-single", cells: 1, perReq: 1, rate: 2000}
	// gwBatchSpec: two closed-loop tenants, one homed on each cell.
	gwBatchSpec = gwSpec{name: "gw-batch", cells: 2, perReq: 32}
)

// gatewayCellConfig is one gateway cell's beacon configuration at the
// shipped defaults, instrumented with ctr when it is non-nil.
func gatewayCellConfig(ctr *metrics.Counters) beacon.Config {
	field := gf2k.MustNew(coinBits)
	if ctr != nil {
		field = field.WithCounters(ctr)
	}
	return beacon.Config{
		Core: core.Config{
			Field:     field,
			N:         gwN,
			T:         gwT,
			BatchSize: gwBatch,
			Threshold: core.DefaultThreshold,
			HighWater: gwHighWater,
			Counters:  ctr,
		},
		QueueDepth: gwQueue,
		Counters:   ctr,
	}
}

// homeTenants picks one tenant key per cell whose consistent-hash home is
// that cell, deterministically from the seed.
func homeTenants(seed int64, cells int) []string {
	ids := make([]int, cells)
	for i := range ids {
		ids[i] = i
	}
	ring := multicell.NewRing(ids, 0)
	out := make([]string, cells)
	found := 0
	for i := 0; found < cells; i++ {
		key := fmt.Sprintf("perfbench-%d-%d", seed, i)
		if c := ring.Lookup(key); out[c] == "" {
			out[c] = key
			found++
		}
	}
	return out
}

// tenants returns the X-Tenant key of each client: none for the anonymous
// single-coin workload, one home tenant per cell for the batch workload.
func (s gwSpec) tenants(seed int64) []string {
	if s.rate > 0 {
		return make([]string, clientConns)
	}
	return homeTenants(seed, s.cells)
}

// drawFunc performs one request for client and returns the serving cell,
// the first coin's sequence number and the coins.
type drawFunc func(ctx context.Context, client int) (int, int64, []gf2k.Element, error)

// loadResult is what one load window observed.
type loadResult struct {
	lats      []float64 // ms per request; open loop: from when it was due
	genLag    []float64 // ms the open-loop generator ran late, per request
	attempted int64
	failed    int64
	coins     int64
	perSecond []int64       // coins completed in each second of the window
	elapsed   time.Duration // window start to last completion
	firstErr  error
}

// coinRate is the coins delivered per second. A closed loop reports the
// median over the window's whole seconds of the coins completed in each,
// so a stall confined to one second moves one sample, not the rate. An
// open loop's per-second counts are its schedule, so it reports the mean
// over the window, which falls below the offered rate only when the system
// falls behind; so does a window shorter than two seconds.
func (r loadResult) coinRate(spec gwSpec) float64 {
	whole := int(r.elapsed / time.Second)
	if spec.rate > 0 || whole < 2 || whole > len(r.perSecond) {
		return float64(r.coins) / r.elapsed.Seconds()
	}
	rates := make([]float64, whole)
	for i := range rates {
		rates[i] = float64(r.perSecond[i])
	}
	return median(rates)
}

// runLoad drives draw with the workload's traffic for dur: an open loop at
// spec.rate spread over the clients, or a closed loop of one request at a
// time per client. Every request gets a span named spanName
// under parent when rec is non-nil, and every served coin is recorded in
// chk when it is non-nil.
func runLoad(ctx context.Context, spec gwSpec, clients int, dur time.Duration, draw drawFunc, rec *spanRecorder, spanName string, parent int64, chk *coinChecker) loadResult {
	type job struct {
		id  int64
		due time.Time
	}
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	do := func(client int, j job) {
		t0 := time.Now()
		cell, seq, vals, err := draw(ctx, client)
		end := time.Now()
		rec.add(spanName, parent, j.id, t0, end)
		if err == nil && chk != nil {
			err = chk.record(cell, seq, vals)
		}
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			return
		}
		res.coins += int64(len(vals))
		res.lats = append(res.lats, ms(end.Sub(j.due)))
		res.elapsed = end.Sub(start)
		sec := int(res.elapsed / time.Second)
		for len(res.perSecond) <= sec {
			res.perSecond = append(res.perSecond, 0)
		}
		res.perSecond[sec] += int64(len(vals))
	}

	if spec.rate > 0 {
		total := int(spec.rate * dur.Seconds())
		// Sized to the whole schedule so the generator never waits for the
		// system under test: that is what makes the loop open.
		jobs := make(chan job, total)
		lags := make([]float64, 0, total)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			// The generator sleeps on its own thread with nanosleep: the
			// runtime's timers wake a sleeping process with millisecond
			// granularity, which would make every request late by design.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i := range total {
				if ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / spec.rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					ts := syscall.NsecToTimespec(int64(d))
					for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
					}
				}
				lags = append(lags, ms(time.Since(due)))
				jobs <- job{id: int64(i + 1), due: due}
			}
		}()
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					do(c, j)
				}
			}()
		}
		wg.Wait()
		res.genLag = lags
		return res
	}

	var next int64
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				mu.Lock()
				next++
				id := next
				mu.Unlock()
				do(c, job{id: id, due: time.Now()})
			}
		}()
	}
	wg.Wait()
	return res
}

// gateway is one running beacongw process.
type gateway struct {
	cmd     *exec.Cmd
	addr    string // host:port it listens on
	stderr  bytes.Buffer
	drained chan struct{}
	// conns[c] is client c's keep-alive connection; the last slot serves
	// the counter scrapes. A slot is used by one goroutine at a time.
	conns []*httpConn
}

// startGateway execs beacongw with the workload's cell count and the seeded
// generator, and returns once it prints its listen address.
func startGateway(bin string, spec gwSpec, seed int64) (*gateway, error) {
	g := &gateway{drained: make(chan struct{}), conns: make([]*httpConn, clientConns+1)}
	g.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-cells", strconv.Itoa(spec.cells),
		"-insecure-rand", "-rng-seed", strconv.FormatInt(seed, 10))
	g.cmd.Stderr = &g.stderr
	// Should the benchmark die without stopping it, the kernel kills the
	// gateway rather than leave it serving.
	g.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := g.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := g.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start beacongw: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(g.drained)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "beacongw: listening on http://"); ok && !sent {
				addr <- a
				sent = true
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			g.stop() //nolint:errcheck // the exit status is the error being reported
			return nil, fmt.Errorf("beacongw exited before listening: %s", strings.TrimSpace(g.stderr.String()))
		}
		g.addr = a
	case <-time.After(60 * time.Second):
		g.stop() //nolint:errcheck // the timeout is the error being reported
		return nil, errors.New("beacongw did not listen within 60s")
	}
	return g, nil
}

// stop closes the client connections, sends SIGTERM, waits for a graceful
// exit (killing after 30s) and for the stdout drainer.
func (g *gateway) stop() error {
	for _, cn := range g.conns {
		if cn != nil {
			cn.c.Close()
		}
	}
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		g.cmd.Process.Kill() //nolint:errcheck // best effort; Wait below reaps it
	}
	done := make(chan error, 1)
	go func() { done <- g.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		g.cmd.Process.Kill() //nolint:errcheck // Wait below reports the outcome
		err = <-done
	}
	<-g.drained
	if err != nil {
		return fmt.Errorf("beacongw exit: %w: %s", err, strings.TrimSpace(g.stderr.String()))
	}
	return nil
}

// httpConn is one keep-alive HTTP/1.1 connection. The benchmark writes its
// few fixed requests itself and parses responses with http.ReadResponse:
// the client shares the machine with the gateway, and without net/http's
// Transport (two goroutines and a channel hand-off per request) it spends
// about a fifth less CPU per request (on a 2-vCPU VM, 100 µs against 129).
type httpConn struct {
	c net.Conn
	r *bufio.Reader
}

// request is the wire form of a GET of path, with an X-Tenant header when
// tenant is not empty.
func (g *gateway) request(path, tenant string) []byte {
	h := ""
	if tenant != "" {
		h = "X-Tenant: " + tenant + "\r\n"
	}
	return []byte("GET " + path + " HTTP/1.1\r\nHost: " + g.addr + "\r\n" + h + "\r\n")
}

// get sends req on slot's connection, dialing it first if needed, and
// returns the response status and body. A failed exchange drops the
// connection; the next call redials.
func (g *gateway) get(slot int, req []byte) (int, []byte, error) {
	cn := g.conns[slot]
	if cn == nil {
		c, err := net.Dial("tcp", g.addr)
		if err != nil {
			return 0, nil, err
		}
		cn = &httpConn{c: c, r: bufio.NewReader(c)}
		g.conns[slot] = cn
	}
	status, body, err := cn.roundTrip(req)
	if err != nil {
		cn.c.Close()
		g.conns[slot] = nil
	}
	return status, body, err
}

func (cn *httpConn) roundTrip(req []byte) (int, []byte, error) {
	if err := cn.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := cn.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(cn.r, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// draw is the HTTP drawFunc for spec: one GET per call on the client's own
// connection, with the client's tenant header when it has one.
func (g *gateway) draw(spec gwSpec, tenants []string) drawFunc {
	path := "/v1/coin"
	if spec.perReq > 1 {
		path = fmt.Sprintf("/v1/coins?n=%d", spec.perReq)
	}
	reqs := make([][]byte, len(tenants))
	for c, t := range tenants {
		reqs[c] = g.request(path, t)
	}
	return func(ctx context.Context, client int) (int, int64, []gf2k.Element, error) {
		if err := ctx.Err(); err != nil {
			return 0, 0, nil, err
		}
		status, body, err := g.get(client, reqs[client])
		if err != nil {
			return 0, 0, nil, err
		}
		if status != http.StatusOK {
			return 0, 0, nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		return parseCoins(body, spec.perReq, spec.cells)
	}
}

// procStat reads the process's user+sys CPU time and peak resident set
// (VmHWM) from /proc.
func procStat(pid int) (cpu time.Duration, peakMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	cpu = time.Duration(ut+st) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, 0, err
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape is one read of the gateway's counter hooks: the /metrics
// exposition and the /v1/cells table.
type scrape struct {
	samples []prom.Sample
	cells   []multicell.CellStats
}

func (g *gateway) scrape() (scrape, error) {
	var s scrape
	body, err := g.scrapeGet("/metrics")
	if err != nil {
		return s, err
	}
	if s.samples, err = prom.ParseText(bytes.NewReader(body)); err != nil {
		return s, fmt.Errorf("parse /metrics: %w", err)
	}
	if body, err = g.scrapeGet("/v1/cells"); err != nil {
		return s, err
	}
	var cells struct {
		Cells []multicell.CellStats `json:"cells"`
	}
	if err := json.Unmarshal(body, &cells); err != nil {
		return s, fmt.Errorf("decode /v1/cells: %w", err)
	}
	s.cells = cells.Cells
	return s, nil
}

// scrapeGet fetches path on the scrape connection and requires a 200.
func (g *gateway) scrapeGet(path string) ([]byte, error) {
	status, body, err := g.get(clientConns, g.request(path, ""))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return body, nil
}

// sum adds every sample of the named family.
func (s scrape) sum(name string) float64 {
	var t float64
	for _, x := range prom.Find(s.samples, name) {
		t += x.Value
	}
	return t
}

// cellTotals adds the /v1/cells counters over all cells.
func (s scrape) cellTotals() (draws, coins, blocked, refills int64) {
	for _, c := range s.cells {
		draws += c.Draws
		coins += c.Coins
		blocked += c.BlockedDraws
		refills += c.Refills
	}
	return
}
