package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gf2k"
	"repro/internal/metrics"
)

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 beyond p99.9
		{9999, 99},    // 9 beyond p99.9, 99 beyond p99
		{1000, 99},    // exactly 10 beyond p99
		{999, 95},     // 9 beyond p99
		{200, 95},     // 10 beyond p95
		{100, 90},
		{20, 50},
		{19, 0},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v (beyond p%v: %d)", c.n, got, c.want, got, samplesBeyond(c.n, got))
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestChunkedP99(t *testing.T) {
	// Three chunks whose p99s are 10, 30 and 20: the median is 20, whatever
	// the slowest chunk's outliers.
	var xs []float64
	for _, top := range []float64{10, 30, 20} {
		for i := range tailChunk {
			v := 1.0
			if i >= tailChunk-tailChunk/50 {
				v = top
			}
			xs = append(xs, v)
		}
	}
	xs = append(xs, 1000) // an incomplete trailing chunk is ignored
	if got := chunkedP99(xs); got != 20 {
		t.Errorf("chunkedP99 = %v, want 20", got)
	}
	short := []float64{1, 2, 3}
	if got := chunkedP99(short); got != 3 {
		t.Errorf("chunkedP99 of a short sample = %v, want its p99 3", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(10, 3, 4); got != 3 {
		t.Errorf("selfTime(10, 3, 4) = %v, want 3", got)
	}
	if got := selfTime(5); got != 5 {
		t.Errorf("selfTime with no callees = %v, want the span", got)
	}
	if got := selfTime(5, 7); got != 0 {
		t.Errorf("selfTime below its callees = %v, want 0", got)
	}
}

func TestPerCoinRatios(t *testing.T) {
	if got := perCoin(5880, 5000); got != 1.176 {
		t.Errorf("perCoin(5880, 5000) = %v, want 1.176", got)
	}
	if got := perCoin(7, 0); got != 0 {
		t.Errorf("perCoin over no coins = %v, want 0", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over 0 = %v, want 0", got)
	}
	c := protoCost{coins: 10, diff: metrics.Snapshot{
		FieldMuls: 50, FieldInvs: 1, Interpolations: 20, Messages: 460, Bytes: 8800, DomainHits: 3, DomainMisses: 1,
	}}
	m := map[string]float64{}
	c.put(m)
	want := map[string]float64{
		"gf2k.muls_per_coin": 5, "gf2k.invs_per_coin": 0.1, "poly.interpolations_per_coin": 2,
		"poly.domain_hit_ratio": 0.75, "simnet.msgs_per_coin": 46, "simnet.bytes_per_coin": 880,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestCoalescedGaps(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }
	// First coin at 0; one at 1 ms; three coalesced into the wake-up at
	// 4 ms; a wake-up that found nothing at 5 ms; one at 7 ms.
	times := []time.Time{at(0), at(1), at(4), at(5), at(7)}
	counts := []int{1, 1, 3, 0, 1}
	got := coalescedGaps(times, counts)
	want := []float64{1, 1, 1, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("gaps = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("gaps = %v, want %v", got, want)
		}
	}
}

func TestCheckerRejectsDuplicateWrongAndMissing(t *testing.T) {
	ref := func(cell int, n int64) ([]gf2k.Element, error) {
		s := make([]gf2k.Element, n)
		for i := range s {
			s[i] = gf2k.Element(100*cell + i)
		}
		return s, nil
	}
	good := newCoinChecker(2)
	if err := good.record(0, 0, []gf2k.Element{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := good.record(1, 0, []gf2k.Element{100}); err != nil {
		t.Fatal(err)
	}
	if r, err := good.verify(ref); err != nil || r.dups+r.missing+r.wrong != 0 || r.coins != 4 {
		t.Fatalf("honest record: %+v, %v", r, err)
	}

	dup := newCoinChecker(1)
	dup.record(0, 0, []gf2k.Element{0, 1}) //nolint:errcheck // first record cannot fail
	if err := dup.record(0, 1, []gf2k.Element{1, 2}); err == nil {
		t.Error("a position served twice was accepted")
	}
	if r, _ := dup.verify(ref); r.dups != 1 {
		t.Errorf("dups = %d, want 1", r.dups)
	}

	wrong := newCoinChecker(1)
	wrong.record(0, 0, []gf2k.Element{0, 1, 7}) //nolint:errcheck // first record cannot fail
	if r, _ := wrong.verify(ref); r.wrong != 1 {
		t.Errorf("wrong = %d, want 1", r.wrong)
	}

	gap := newCoinChecker(1)
	gap.record(0, 0, []gf2k.Element{0}) //nolint:errcheck // first record cannot fail
	gap.record(0, 3, []gf2k.Element{3}) //nolint:errcheck // distinct position
	if r, _ := gap.verify(ref); r.missing != 2 {
		t.Errorf("missing = %d, want 2", r.missing)
	}
}

func TestParseCoins(t *testing.T) {
	cell, seq, vals, err := parseCoins([]byte(`{"cell":1,"seq":64,"coins":["0x0000000a","0x0000000b"],"k":32}`), 2, 2)
	if err != nil || cell != 1 || seq != 64 || len(vals) != 2 || vals[1] != 0xb {
		t.Fatalf("parseCoins = %d %d %v %v", cell, seq, vals, err)
	}
	for _, bad := range []string{
		`{"cell":0,"seq":0,"coins":["0x0000000a"],"k":32}`,        // one coin short
		`{"cell":2,"seq":0,"coins":["0x1","0x2"],"k":32}`,         // no such cell
		`{"cell":0,"seq":0,"coins":["0x1","0x2"],"k":16}`,         // wrong field
		`{"cell":0,"seq":0,"coins":["0x1","0xfffffffff"],"k":32}`, // coin outside GF(2^32)
		`not json`,
	} {
		if _, _, _, err := parseCoins([]byte(bad), 2, 2); err == nil {
			t.Errorf("parseCoins accepted %s", bad)
		}
	}
}

func TestHomeTenants(t *testing.T) {
	a, b := homeTenants(7, 2), homeTenants(7, 2)
	if a[0] == "" || a[1] == "" || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("homeTenants not deterministic or incomplete: %v %v", a, b)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each metric BENCHMARK.json names is reported with its unit and that
// every served coin checked out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds beacongw and runs every workload")
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin := filepath.Join(work, "beacongw")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/beacongw")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build beacongw: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "2", "-trace", []string{"0", "1"}[trace],
				"-smoke", "-beacongw", bin, "-work", work}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s\n%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line %q: %v", w.Name, trace, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
