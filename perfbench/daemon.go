package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/beacon"
	"repro/internal/metrics"
	"repro/internal/obs/prom"
	"repro/internal/simnet"
)

// emitTarget is the daemon-emit cycle length: every cycle deals a fresh
// cluster and runs it to this many coins. At the default batch of 64 it
// crosses about 40 inline refills (one gap in 60), so the refill stall sits
// on the p99 gap of every cycle; a run makes several cycles and reports
// medians over them.
const emitTarget = 2500

// daemonCycle is one daemon-emit cycle's observations.
type daemonCycle struct {
	setup   time.Duration // DealCluster start → first coin in player 0's log
	gaps    []float64     // ms between consecutive coins in player 0's log
	window  time.Duration // first coin → last coin
	cpu     time.Duration // process user+sys CPU over the window
	log     []byte        // player 0's public log
	failed  int64         // daemon errors and log mismatches
	firstEr error

	// Traced cycles only.
	cost    metrics.Snapshot // all players' counters over the cycle
	peer    [][]prom.Sample  // each daemon's peer-transport metrics
	emitMet *beacon.DaemonMetrics
}

// loopbackPeers builds an n-player loopback roster on freshly reserved
// ports, with a secret derived from the seed.
func loopbackPeers(seed int64, n int) (*simnet.PeerConfig, error) {
	secret := sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("perfbench"), uint64(seed)))
	pc := &simnet.PeerConfig{Cluster: "perfbench", Secret: secret[:], T: gwT, K: coinBits}
	// Every port stays reserved until all are chosen, so no two players get
	// the same one. Closing them leaves a short window in which another
	// process could bind one; on a benchmark machine nothing else binds.
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		pc.Peers = append(pc.Peers, simnet.Peer{ID: i, Addr: ln.Addr().String()})
	}
	return pc, pc.Validate()
}

// runDaemonCycle deals a 7-player cluster into a fresh state directory under
// work, runs one beacon.Daemon per player in this process over the loopback
// peer mesh to emitTarget coins, and watches player 0's public log.
func runDaemonCycle(ctx context.Context, work string, seed int64, traced bool, rec *spanRecorder, cycle int) (*daemonCycle, error) {
	dir, err := os.MkdirTemp(work, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pc, err := loopbackPeers(seed, gwN)
	if err != nil {
		return nil, err
	}
	dc := &daemonCycle{}
	var ctr metrics.Counters
	regs := make([]*prom.Registry, gwN)
	root := rec.open("daemon.cycle", 0)

	t0 := time.Now()
	if err := beacon.DealCluster(pc, dir, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	rec.add("beacon.DealCluster", root, int64(cycle), t0, time.Now())
	daemons := make([]*beacon.Daemon, gwN)
	var w *logWatcher
	started := false
	defer func() {
		if w != nil {
			w.close()
		}
		if started {
			return
		}
		// Set-up failed part way: running a daemon under a cancelled
		// context releases its listener, connections and log file.
		done, cancel := context.WithCancel(ctx)
		cancel()
		for _, d := range daemons {
			if d != nil {
				d.Run(done) //nolint:errcheck // the set-up error is the one reported
			}
		}
	}()
	for i := range daemons {
		cfg := beacon.DaemonConfig{
			Peers:    pc,
			Self:     i,
			StateDir: dir,
			Emit:     emitTarget,
			Rand:     rand.New(rand.NewSource(seed + int64(i+1)*1009)),
		}
		if traced {
			regs[i] = prom.NewRegistry()
			cfg.Counters = &ctr
			cfg.PeerMetrics = simnet.NewPeerMetrics(regs[i])
			cfg.Metrics = beacon.NewDaemonMetrics(regs[i])
			if i == 0 {
				dc.emitMet = cfg.Metrics
			}
		}
		tn := time.Now()
		d, err := beacon.NewDaemon(cfg)
		if err != nil {
			return nil, fmt.Errorf("player %d: %w", i, err)
		}
		rec.add("beacon.NewDaemon", root, int64(i), tn, time.Now())
		daemons[i] = d
		if i == 0 {
			if w, err = watchLog(beacon.CoinLogFile(dir, 0)); err != nil {
				return nil, err
			}
		}
	}

	started = true
	errs := make([]error, gwN)
	var wg sync.WaitGroup
	for i, d := range daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := time.Now()
			errs[i] = d.Run(ctx)
			rec.add("beacon.Daemon.Run", root, int64(i), tr, time.Now())
		}()
	}
	type watched struct {
		arrivals   []time.Time
		counts     []int
		cpu0, cpu1 time.Duration
		err        error
	}
	seen := make(chan watched, 1)
	go func() {
		var r watched
		r.arrivals, r.counts, r.cpu0, r.cpu1, r.err = w.until(emitTarget)
		seen <- r
	}()
	wg.Wait()
	// Every daemon has returned, so every append is already in the log and
	// its event queued; a watcher still blocked after that grace period is
	// waiting for coins that will never come.
	var r watched
	select {
	case r = <-seen:
	case <-time.After(5 * time.Second):
		w.close()
		r = <-seen
	}
	w.close()
	w = nil
	rec.close(root)
	arrivals, counts, cpu0, cpu1, werr := r.arrivals, r.counts, r.cpu0, r.cpu1, r.err
	for _, err := range append(errs, werr) {
		if err != nil {
			dc.failed++
			if dc.firstEr == nil {
				dc.firstEr = err
			}
		}
	}
	if werr != nil || len(arrivals) == 0 {
		return dc, nil
	}
	dc.setup = arrivals[0].Sub(t0)
	dc.window = arrivals[len(arrivals)-1].Sub(arrivals[0])
	dc.cpu = cpu1 - cpu0
	dc.gaps = coalescedGaps(arrivals, counts)
	for k := range arrivals {
		if k > 0 {
			rec.add("daemon.coin_gap", root, int64(k), arrivals[k-1], arrivals[k])
		}
	}

	// Every public log must be byte-identical and exactly emitTarget long.
	for i := range gwN {
		data, err := os.ReadFile(beacon.CoinLogFile(dir, i))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			dc.log = data
			if n := bytes.Count(data, []byte("\n")); n != emitTarget {
				dc.failed++
				dc.firstEr = errors.Join(dc.firstEr, fmt.Errorf("player 0 log holds %d coins, want %d", n, emitTarget))
			}
			continue
		}
		if !bytes.Equal(data, dc.log) {
			dc.failed++
			dc.firstEr = errors.Join(dc.firstEr, fmt.Errorf("player %d log differs from player 0's", i))
		}
	}
	if traced {
		dc.cost = ctr.Snapshot()
		for _, r := range regs {
			var b bytes.Buffer
			if err := r.WriteText(&b); err != nil {
				return nil, err
			}
			s, err := prom.ParseText(&b)
			if err != nil {
				return nil, err
			}
			dc.peer = append(dc.peer, s)
		}
	}
	return dc, nil
}

// logWatcher blocks on inotify for appends to one public log file and
// records when new coins (lines) appeared.
type logWatcher struct {
	ino  *os.File
	log  *os.File
	once sync.Once
}

func watchLog(path string) (*logWatcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("inotify: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, path, syscall.IN_MODIFY); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify watch %s: %w", path, err)
	}
	lf, err := os.Open(path)
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	// A non-blocking descriptor handed to os.NewFile joins the runtime
	// poller, so Read parks the goroutine instead of spinning or holding a
	// thread.
	return &logWatcher{ino: os.NewFile(uintptr(fd), "inotify"), log: lf}, nil
}

// until blocks until the log holds want lines, returning each wake-up's
// time and how many lines it found, and the process CPU time at the first
// and the last coin.
func (w *logWatcher) until(want int) (times []time.Time, counts []int, cpu0, cpu1 time.Duration, err error) {
	times = make([]time.Time, 0, want)
	counts = make([]int, 0, want)
	evbuf := make([]byte, 64*(syscall.SizeofInotifyEvent+syscall.NAME_MAX+1))
	chunk := make([]byte, 64<<10)
	seen := 0
	for seen < want {
		if _, err := w.ino.Read(evbuf); err != nil {
			return times, counts, cpu0, cpu1, fmt.Errorf("watch public log: %w", err)
		}
		now := time.Now()
		n := 0
		for {
			k, err := w.log.Read(chunk)
			n += bytes.Count(chunk[:k], []byte("\n"))
			if err != nil || k < len(chunk) {
				break
			}
		}
		if n == 0 {
			continue
		}
		if seen == 0 {
			cpu0 = selfCPU()
		}
		seen += n
		times = append(times, now)
		counts = append(counts, n)
	}
	cpu1 = selfCPU()
	return times, counts, cpu0, cpu1, nil
}

func (w *logWatcher) close() {
	w.once.Do(func() {
		w.ino.Close()
		w.log.Close()
	})
}

// selfCPU is this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// daemonWorkDir is where cycles keep their state directories.
func daemonWorkDir(work string) (string, error) {
	dir := filepath.Join(work, "daemon-emit")
	return dir, os.MkdirAll(dir, 0o755)
}
