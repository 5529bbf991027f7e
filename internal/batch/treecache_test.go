package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// TestHotTreeConcurrentMissParsesOnce pins the in-flight sharing of the
// hot-tree LRU: callers that miss on a source while it is being parsed
// wait for that parse instead of repeating it. With a parse that
// succeeds, every caller gets the one tree from one parse (a caller
// arriving after the parse hits the cache). With a parse that fails,
// every caller gets the error, and the failure is not cached.
func TestHotTreeConcurrentMissParsesOnce(t *testing.T) {
	want := topo.Chain(5, 10, 1e-15)
	errParse := errors.New("parse failed")
	for _, fail := range []bool{false, true} {
		var calls atomic.Int32
		release := make(chan struct{})
		c := NewTreeCache(4, "batch.hot_tree")
		c.parse = func(string) (*rctree.Tree, error) {
			calls.Add(1)
			<-release
			if fail {
				return nil, errParse
			}
			return want, nil
		}
		load := c.Load
		const callers = 8
		var wg sync.WaitGroup
		trees := make([]*rctree.Tree, callers)
		errs := make([]error, callers)
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				trees[k], errs[k] = load("", "deck")
			}(k)
		}
		close(release)
		wg.Wait()
		for k := 0; k < callers; k++ {
			if fail && !errors.Is(errs[k], errParse) || !fail && (errs[k] != nil || trees[k] != want) {
				t.Fatalf("fail=%v: caller %d got %p, %v", fail, k, trees[k], errs[k])
			}
		}
		if !fail {
			if got := calls.Load(); got != 1 {
				t.Fatalf("%d parses for %d concurrent callers, want 1", got, callers)
			}
			continue
		}
		before := calls.Load()
		if _, err := load("", "deck"); !errors.Is(err, errParse) || calls.Load() != before+1 {
			t.Fatalf("a failed load was cached: err %v, parses %d -> %d", err, before, calls.Load())
		}
	}
}

// A cache of capacity 0 (elmored -hot-trees 0) parses every load.
func TestTreeCacheOff(t *testing.T) {
	c := NewTreeCache(0, "batch.hot_tree")
	parses := 0
	c.parse = func(text string) (*rctree.Tree, error) {
		parses++
		return parseDeck(text)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Load("", specNet); err != nil {
			t.Fatal(err)
		}
	}
	if parses != 3 || c.Len() != 0 {
		t.Fatalf("disabled cache: %d parses for 3 loads, %d trees held; want 3 and 0", parses, c.Len())
	}
}

// A net file rewritten in place is answered from its new text: Load
// reads the file on every call and looks the tree up by its contents,
// never by the path. Keyed on the path, a rewritten deck (Elmore delay
// 50 ps at z) was answered from the old tree's 9.5 ps, an
// anti-conservative bound.
func TestTreeCacheLoadRewrittenFile(t *testing.T) {
	c := NewTreeCache(8, "batch.hot_tree")
	path := filepath.Join(t.TempDir(), "net.sp")
	deckB := strings.Replace(specNet, "R2 a z 150", "R2 a z 1500", 1)
	for _, deck := range []string{specNet, deckB, specNet} {
		if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := c.Load(path, "")
		if err != nil {
			t.Fatal(err)
		}
		want, err := parseDeck(deck)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("Load after a rewrite returned the tree of another text")
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d trees for 2 distinct texts", c.Len())
	}
}

var (
	elapsedField = regexp.MustCompile(`"elapsed_ns":\d+`)
	traceField   = regexp.MustCompile(`"trace_id":"[0-9a-f]*"`)
)

// maskVolatile blanks the record fields that differ between two runs of
// one batch: timing, the minted trace ID, and which job of a shared net
// happened to compute its moments.
func maskVolatile(records string) string {
	records = strings.ReplaceAll(records, `"cache_hit":true,`, "")
	records = elapsedField.ReplaceAllString(records, `"elapsed_ns":0`)
	return traceField.ReplaceAllString(records, `"trace_id":""`)
}

// TestCornerBatchParsesEachDeckOnce runs K decks x 3 input corners
// through RunSpecsOpts with the default loader, the CLI batch path. In
// net-major order (the corners of one net adjacent, K within the cache)
// every deck is parsed exactly once; in corner-major order with more
// decks than the cache holds, entries are evicted between the corners
// of one net. Either way every record, error records included, matches
// a run that parses every job afresh.
func TestCornerBatchParsesEachDeckOnce(t *testing.T) {
	dir := t.TempDir()
	const decks = DefaultHotTrees + 16
	paths := make([]string, decks)
	for i := range paths {
		tree := topo.Random(int64(i), topo.RandomOptions{N: 2 + i%7})
		paths[i] = filepath.Join(dir, fmt.Sprintf("n%d.sp", i))
		if err := os.WriteFile(paths[i], []byte(netlist.Format(tree, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	malformed := filepath.Join(dir, "malformed.sp")
	if err := os.WriteFile(malformed, []byte("Vin in 0 1\nR1 in\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.sp")
	wantErr := map[string]string{
		missing:   "open " + missing + ": no such file or directory",
		dir:       dir + ": netlist: read: read " + dir + ": is a directory",
		malformed: malformed + ": netlist: line 2: resistor needs 'Rname n1 n2 value'",
	}
	corners := []string{"step", "100p", "1n"}

	for _, tc := range []struct {
		name        string
		decks       int
		cornerMajor bool
	}{
		{"net-major", 100, false},
		{"corner-major", decks, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nets := append(append([]string(nil), paths[:tc.decks]...), missing, dir, malformed)
			var specs []JobSpec
			add := func(n, c int) {
				specs = append(specs, JobSpec{ID: fmt.Sprintf("n%d/%s", n, corners[c]), Net: nets[n], Rise: corners[c]})
			}
			for a := 0; a < len(nets)*len(corners); a++ {
				if tc.cornerMajor {
					add(a%len(nets), a/len(nets))
				} else {
					add(a/len(corners), a%len(corners))
				}
			}

			run := func(load TreeLoader) []string {
				var out bytes.Buffer
				eng := &Engine{Workers: 4, Cache: NewCache()}
				st, err := RunSpecsOpts(context.Background(), eng, nil, &out, SpecRunOptions{Specs: specs, Loader: load})
				if err != nil {
					t.Fatal(err)
				}
				if want := 3 * len(corners); st.Failed != want {
					t.Fatalf("%d failed records, want %d", st.Failed, want)
				}
				return strings.Split(maskVolatile(out.String()), "\n")
			}
			reg := telemetry.NewRegistry()
			prev := telemetry.SetDefault(reg)
			cached := run(nil)
			telemetry.SetDefault(prev)
			fresh := run(DefaultTreeLoader)

			if len(cached) != len(fresh) {
				t.Fatalf("%d records, uncached run %d", len(cached), len(fresh))
			}
			for i := range cached {
				if cached[i] != fresh[i] {
					t.Fatalf("record %d differs from the uncached run:\n got %s\nwant %s", i, cached[i], fresh[i])
				}
			}
			for i, s := range specs {
				if want, ok := wantErr[s.Net]; ok && !strings.Contains(cached[i], fmt.Sprintf(`"error":%q`, want)) {
					t.Fatalf("record %d: %s\nwant error %q", i, cached[i], want)
				}
			}

			misses := reg.Counter("batch.hot_tree_misses").Value()
			hits := reg.Counter("batch.hot_tree_hits").Value()
			evictions := reg.Counter("batch.hot_tree_evictions").Value()
			if !tc.cornerMajor {
				if misses != int64(tc.decks) || hits != int64(2*tc.decks) || evictions != 0 {
					t.Fatalf("%d decks x %d corners: %d parses, %d hits, %d evictions; want %d, %d, 0",
						tc.decks, len(corners), misses, hits, evictions, tc.decks, 2*tc.decks)
				}
			} else if evictions == 0 || misses+hits != int64(len(corners)*tc.decks) {
				t.Fatalf("%d decks x %d corners corner-major: %d parses, %d hits, %d evictions; want evictions and one parse or hit per load",
					tc.decks, len(corners), misses, hits, evictions)
			}
		})
	}
}
