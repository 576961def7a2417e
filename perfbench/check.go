package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/beacon"
	"repro/internal/gf2k"
)

// coinResp is the JSON body of GET /v1/coin (Coin set) and GET /v1/coins
// (Coins set).
type coinResp struct {
	Cell  int      `json:"cell"`
	Seq   int64    `json:"seq"`
	Coin  string   `json:"coin"`
	Coins []string `json:"coins"`
	K     int      `json:"k"`
}

// parseCoins validates one response body for a request of want coins and
// returns its cell, first sequence number and values.
func parseCoins(body []byte, want, cells int) (int, int64, []gf2k.Element, error) {
	var r coinResp
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, 0, nil, fmt.Errorf("decode response: %w", err)
	}
	raw := r.Coins
	if r.Coin != "" {
		raw = []string{r.Coin}
	}
	if len(raw) != want {
		return 0, 0, nil, fmt.Errorf("got %d coins, asked for %d", len(raw), want)
	}
	if r.K != coinBits || r.Cell < 0 || r.Cell >= cells || r.Seq < 0 {
		return 0, 0, nil, fmt.Errorf("bad position (cell %d of %d, seq %d, k %d)", r.Cell, cells, r.Seq, r.K)
	}
	vals := make([]gf2k.Element, len(raw))
	for i, s := range raw {
		v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, coinBits)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("coin %q: %w", s, err)
		}
		vals[i] = gf2k.Element(v)
	}
	return r.Cell, r.Seq, vals, nil
}

// coinChecker records every (cell, seq) → value a client received. Served
// positions must be distinct; after the run they must cover each cell's
// stream without a gap (every coin a cell opened reached a client); and
// every value must equal the single-cell reference stream of the same seed.
type coinChecker struct {
	mu    sync.Mutex
	cells []map[int64]gf2k.Element
	dups  int64
}

func newCoinChecker(cells int) *coinChecker {
	c := &coinChecker{cells: make([]map[int64]gf2k.Element, cells)}
	for i := range c.cells {
		c.cells[i] = make(map[int64]gf2k.Element)
	}
	return c
}

// record adds the contiguous coins vals at positions seq, seq+1, … of cell's
// stream. A position already served counts as a duplicate and is an error.
func (c *coinChecker) record(cell int, seq int64, vals []gf2k.Element) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.cells[cell]
	var dup int64
	for i, v := range vals {
		if _, ok := m[seq+int64(i)]; ok {
			dup++
			continue
		}
		m[seq+int64(i)] = v
	}
	c.dups += dup
	if dup > 0 {
		return fmt.Errorf("cell %d: %d coins from seq %d served twice", cell, dup, seq)
	}
	return nil
}

// checkResult is the verdict over everything recorded.
type checkResult struct {
	coins   int64 // distinct positions served
	dups    int64 // positions served more than once
	missing int64 // positions below a cell's highest served one never served
	wrong   int64 // values differing from the reference stream
}

// refStream returns the first n coins of cell's reference stream.
type refStream func(cell int, n int64) ([]gf2k.Element, error)

// verify compares every recorded coin against ref and counts gaps.
func (c *coinChecker) verify(ref refStream) (checkResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := checkResult{dups: c.dups}
	for cell, m := range c.cells {
		if len(m) == 0 {
			continue
		}
		seqs := make([]int64, 0, len(m))
		for s := range m {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		top := seqs[len(seqs)-1]
		res.coins += int64(len(m))
		res.missing += top + 1 - int64(len(m))
		want, err := ref(cell, top+1)
		if err != nil {
			return res, fmt.Errorf("reference stream for cell %d: %w", cell, err)
		}
		for _, s := range seqs {
			if m[s] != want[s] {
				res.wrong++
			}
		}
	}
	return res, nil
}

// gatewayCellRand reproduces beacongw -insecure-rand: each (cell, player)
// pair draws from a private math/rand stream keyed by the pair and by how
// many times the pair has asked, so the k-th request of a pair means the
// same thing in the gateway and in a replay.
func gatewayCellRand(seed int64) func(cell, player int) io.Reader {
	var mu sync.Mutex
	calls := make(map[[2]int]int64)
	return func(cell, player int) io.Reader {
		mu.Lock()
		calls[[2]int{cell, player}]++
		k := calls[[2]int{cell, player}]
		mu.Unlock()
		return rand.New(rand.NewSource(seed +
			int64(cell)*7_777_777 +
			int64(player)*1009 +
			k*1_000_003))
	}
}

// refDrawBatch is the reference replay's request size: the default
// per-sweep exposure budget (beacon.Config.MaxBatch). A larger request
// would make the replay's executive fall back to a blocking refill, which
// draws different randomness than the pipelined refills the gateway ran.
const refDrawBatch = 32

// top returns, per cell, how many coins of its stream the checker must
// compare: one past the highest position served.
func (c *coinChecker) top() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.cells))
	for cell, m := range c.cells {
		for s := range m {
			out[cell] = max(out[cell], s+1)
		}
	}
	return out
}

// referenceStreams replays each cell's first n[cell] coins on a standalone
// beacon.Service seeded like the gateway's cell, drawing refDrawBatch coins
// at a time, one cell per goroutine.
func referenceStreams(seed int64, cells int, n []int64) (refStream, error) {
	streams := make([][]gf2k.Element, cells)
	errs := make([]error, cells)
	var wg sync.WaitGroup
	for cell := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[cell], errs[cell] = replayCell(seed, cell, n[cell])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return func(cell int, n int64) ([]gf2k.Element, error) {
		if int64(len(streams[cell])) < n {
			return nil, fmt.Errorf("reference for cell %d holds %d coins, need %d", cell, len(streams[cell]), n)
		}
		return streams[cell][:n], nil
	}, nil
}

// replayCell returns the first n coins of one gateway cell's stream.
func replayCell(seed int64, cell int, n int64) ([]gf2k.Element, error) {
	cellRand := gatewayCellRand(seed)
	cfg := gatewayCellConfig(nil)
	cfg.Rand = func(player int) io.Reader { return cellRand(cell, player) }
	svc, err := beacon.New(cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx) //nolint:errcheck // the reference is discarded; a close error cannot change the verdict
	}()
	out := make([]gf2k.Element, 0, n)
	for int64(len(out)) < n {
		k := int(min(n-int64(len(out)), refDrawBatch))
		vals, seq, err := svc.DrawN(context.Background(), k)
		if err != nil {
			return nil, err
		}
		if seq != int64(len(out)) {
			return nil, fmt.Errorf("reference position %d, want %d", seq, len(out))
		}
		out = append(out, vals...)
	}
	return out, nil
}
