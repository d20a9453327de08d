package coll

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"acclaim/internal/simmpi"
)

// update regenerates testdata/clocks.golden from the simulator:
//
//	go test ./internal/coll/ -run ClocksGolden -update
//
// The file pins every virtual clock the simulator produces; it must
// only change when the cost model or a collective's schedule changes on
// purpose, never when the simulator's host-side machinery does.
var update = flag.Bool("update", false, "rewrite testdata/clocks.golden")

const clocksGolden = "testdata/clocks.golden"

// goldenShape is one job layout: nodes x ppn ranks. The layouts mix
// one-rank-per-node jobs with multi-rank nodes so both intra-node and
// network links are priced; 32x8 is the tune-collect job shape.
type goldenShape struct{ nodes, ppn int }

var (
	goldenShapes = []goldenShape{{2, 1}, {3, 1}, {7, 1}, {4, 4}, {6, 4}, {8, 8}, {32, 8}}
	goldenMsgs   = []int{8, 1000, 65536}
)

// goldenDataMaxRanks bounds the data-mode cells: moving real bytes at
// 64 and 256 ranks costs far more than it adds, since the clocks never
// depend on the bytes.
const goldenDataMaxRanks = 24

// goldenCell is one (collective, algorithm, layout, size, mode) run.
type goldenCell struct {
	c        Collective
	alg      string
	shape    goldenShape
	msg      int
	withData bool
}

func (g goldenCell) ranks() int { return g.shape.nodes * g.shape.ppn }

// key is the cell's stable identifier, the golden line up to its
// results.
func (g goldenCell) key() string {
	data := 0
	if g.withData {
		data = 1
	}
	return fmt.Sprintf("%v/%s n=%d(%dx%d) msg=%d data=%d",
		g.c, g.alg, g.ranks(), g.shape.nodes, g.shape.ppn, g.msg, data)
}

// goldenCells enumerates every cell in golden-file order.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, c := range Collectives() {
		for _, alg := range AlgorithmNames(c) {
			for _, sh := range goldenShapes {
				for _, msg := range goldenMsgs {
					cells = append(cells, goldenCell{c, alg, sh, msg, false})
					if sh.nodes*sh.ppn <= goldenDataMaxRanks {
						cells = append(cells, goldenCell{c, alg, sh, msg, true})
					}
				}
			}
		}
	}
	return cells
}

// goldenLine renders a result: MaxClock as its IEEE-754 bits, the
// message count, and an FNV-64a hash over every rank's clock bits in
// rank order.
func goldenLine(g goldenCell, res simmpi.Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range res.Clocks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		h.Write(b[:])
	}
	return fmt.Sprintf("%s max=%016x sent=%d clocks=%016x",
		g.key(), math.Float64bits(res.MaxClock), res.Sent, h.Sum64())
}

// runGoldenCell executes one cell on a fresh model of its layout.
func runGoldenCell(t testing.TB, g goldenCell) string {
	t.Helper()
	res, err := Exec(modelFor(t, g.shape.nodes, g.shape.ppn), g.c, g.alg, g.msg, Options{WithData: g.withData, Op: simmpi.OpSum})
	if err != nil {
		t.Fatalf("%s: %v", g.key(), err)
	}
	return goldenLine(g, res)
}

// readGolden loads clocks.golden as a map from cell key to line.
func readGolden(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open(clocksGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	lines := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.Index(line, " max=")
		if i < 0 {
			t.Fatalf("malformed golden line %q", line)
		}
		lines[line[:i]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestClocksGolden runs every cell and compares the whole rendering to
// clocks.golden byte for byte.
func TestClocksGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden sweep skipped in -short mode; the world-reuse tests below replay part of it")
	}
	var buf bytes.Buffer
	buf.WriteString("# Virtual clocks of every collective schedule; regenerate with\n")
	buf.WriteString("#   go test ./internal/coll/ -run ClocksGolden -update\n")
	buf.WriteString("# max = MaxClock float64 bits, clocks = FNV-64a over per-rank clock bits.\n")
	for _, g := range goldenCells() {
		buf.WriteString(runGoldenCell(t, g))
		buf.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(clocksGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(clocksGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got := strings.Split(buf.String(), "\n")
	exp := strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Fatalf("clocks.golden line %d:\n got %s\nwant %s", i+1, got[i], exp[i])
		}
	}
	t.Fatalf("clocks.golden has %d lines, run produced %d", len(exp), len(got))
}

// reuseCells picks the cells the world-reuse tests replay: every
// algorithm of every collective at one message size on the given
// layouts, in both modes where the golden has them.
func reuseCells(shapes []goldenShape) []goldenCell {
	var cells []goldenCell
	for _, g := range goldenCells() {
		for _, sh := range shapes {
			if g.shape == sh && g.msg == 1000 {
				cells = append(cells, g)
			}
		}
	}
	return cells
}

// failRun runs a job on the layout in which every rank sends to three
// peers and the last rank then panics while the others wait on it: the
// run fails with messages left undelivered in most mailboxes.
func failRun(t *testing.T, sh goldenShape) {
	t.Helper()
	_, err := simmpi.Run(modelFor(t, sh.nodes, sh.ppn), func(c *simmpi.Comm) {
		n, r := c.Size(), c.Rank()
		for k := 1; k <= 3 && k < n; k++ {
			c.Send((r+k)%n, simmpi.BytesBuf([]byte{byte(r)}))
		}
		if r == n-1 {
			panic("leaving messages behind")
		}
		c.Recv(n - 1)
		c.Recv(n - 1)
	})
	if err == nil {
		t.Fatal("the failing run succeeded")
	}
}

// TestClocksGoldenAfterFailedRun: a run that recycles the world of a
// failed run — undelivered messages, aborted mailboxes — reproduces
// the golden clocks. Each cell follows a failed run of its own layout
// and of the largest layout, so it lands on a world the failure left.
func TestClocksGoldenAfterFailedRun(t *testing.T) {
	golden := readGolden(t)
	shapes := []goldenShape{{3, 1}, {6, 4}, {32, 8}}
	if testing.Short() {
		shapes = shapes[:2]
	}
	big := shapes[len(shapes)-1]
	for _, g := range reuseCells(shapes) {
		failRun(t, big)
		failRun(t, g.shape)
		if got, want := runGoldenCell(t, g), golden[g.key()]; got != want {
			t.Errorf("after a failed run:\n got %s\nwant %s", got, want)
		}
	}
}

// TestClocksGoldenConcurrentRuns: concurrent runs of different sizes,
// as a benchmark wave issues them, each reproduce the golden clocks
// whichever of them ends up with the recycled world.
func TestClocksGoldenConcurrentRuns(t *testing.T) {
	golden := readGolden(t)
	shapes := []goldenShape{{2, 1}, {7, 1}, {4, 4}, {6, 4}, {8, 8}}
	if testing.Short() {
		shapes = shapes[:4]
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(shapes))
	for _, sh := range shapes {
		cells := reuseCells([]goldenShape{sh})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for _, g := range cells {
					res, err := Exec(modelFor(t, g.shape.nodes, g.shape.ppn), g.c, g.alg, g.msg, Options{WithData: g.withData, Op: simmpi.OpSum})
					if err != nil {
						errs <- fmt.Sprintf("%s: %v", g.key(), err)
						return
					}
					if got, want := goldenLine(g, res), golden[g.key()]; got != want {
						errs <- fmt.Sprintf("concurrent run:\n got %s\nwant %s", got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
