package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"elmore/internal/telemetry"
)

func openJournal(t *testing.T, path string) (*Journal, *Replay) {
	t.Helper()
	jr, rp, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return jr, rp
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, rp := openJournal(t, path)
	if len(rp.Done) != 0 || len(rp.Started) != 0 {
		t.Fatalf("fresh journal replayed state: %+v", rp)
	}
	if err := jr.Start(0, "a", ""); err != nil {
		t.Fatal(err)
	}
	if err := jr.Start(1, "b", ""); err != nil {
		t.Fatal(err)
	}
	if err := jr.Done(0, "a"); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2, rp2 := openJournal(t, path)
	if !rp2.Done[JobKey(0, "a")] || len(rp2.Done) != 1 {
		t.Errorf("Done = %v, want exactly {0:a}", rp2.Done)
	}
	if _, ok := rp2.Started[JobKey(1, "b")]; !ok || len(rp2.Started) != 1 {
		t.Errorf("Started = %v, want exactly {1:b} (done keys must leave Started)", rp2.Started)
	}
	// The reopened journal appends, never truncates.
	if err := jr2.Done(1, "b"); err != nil {
		t.Fatal(err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	jr3, rp3 := openJournal(t, path)
	defer jr3.Close()
	if len(rp3.Done) != 2 || len(rp3.Started) != 0 {
		t.Errorf("after second run: Done=%v Started=%v", rp3.Done, rp3.Started)
	}
}

// tornTails are journal tails an interrupted append can leave: the
// replay tolerates each as the final line.
var tornTails = []struct {
	name string
	tail string
}{
	{"mid-append", `{"op":"start","key":"1:`},
	{"undecodable-last-line", "{garbage\n"},
	{"unknown-op-last-line", `{"op":"wip","key":"1:b"}` + "\n"},
}

// TestJournalTornTailTolerated replays a journal ending in each torn
// tail, then resumes from it twice: each resumed run appends records
// and closes, and the next open must still replay cleanly. The torn
// bytes must not become an interior line.
func TestJournalTornTailTolerated(t *testing.T) {
	for _, tc := range tornTails {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.ndjson")
			content := `{"op":"start","key":"0:a"}` + "\n" +
				`{"op":"done","key":"0:a"}` + "\n" + tc.tail
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			jr, rp := openJournal(t, path)
			if !rp.Done[JobKey(0, "a")] || len(rp.Done) != 1 || len(rp.Started) != 0 {
				t.Errorf("replay = %+v, want the intact prefix only", rp)
			}
			for run, id := range []string{"b", "c"} {
				if err := jr.Start(run+1, id, ""); err != nil {
					t.Fatal(err)
				}
				if err := jr.Done(run+1, id); err != nil {
					t.Fatal(err)
				}
				if err := jr.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				if jr, rp, err = OpenJournal(path); err != nil {
					b, _ := os.ReadFile(path)
					t.Fatalf("resume %d: %v\njournal:\n%s", run+1, err, b)
				}
				if len(rp.Done) != run+2 || !rp.Done[JobKey(run+1, id)] || len(rp.Started) != 0 {
					t.Errorf("resume %d: replay = %+v, want %d done jobs", run+1, rp, run+2)
				}
			}
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// interiorCorruptions are journals with a malformed line before a
// complete valid one: corruption, not an interrupted append.
var interiorCorruptions = []struct {
	name    string
	content string
	want    string
}{
	{
		"undecodable interior line",
		`{"op":"start","key":"0:a"}` + "\n{garbage\n" + `{"op":"done","key":"0:a"}` + "\n",
		"line 2",
	},
	{
		"unknown interior op",
		`{"op":"frobnicate","key":"0:a"}` + "\n" + `{"op":"done","key":"0:a"}` + "\n",
		"unknown op",
	},
}

func TestJournalInteriorCorruptionRejected(t *testing.T) {
	for _, tc := range interiorCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.ndjson")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := OpenJournal(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("OpenJournal = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// FuzzReadReplay takes the input as the text of a journal file and
// checks that the replay never panics; that when it accepts the text,
// the accepted prefix followed by any tail without a newline replays
// like the prefix alone, and the prefix followed by a corrupt line and
// then a complete valid line is rejected; and that a file OpenJournal
// accepted still opens after one more appended record.
func FuzzReadReplay(f *testing.F) {
	const prefix = `{"op":"start","key":"0:a"}` + "\n" + `{"op":"done","key":"0:a"}` + "\n"
	for _, tc := range tornTails {
		f.Add([]byte(prefix + tc.tail))
	}
	for _, tc := range interiorCorruptions {
		f.Add([]byte(tc.content))
	}
	f.Add([]byte(prefix + "\n  \r\n" + `{"op":"start","key":"1:b","trace":"0123456789abcdef0123456789abcdef"}` + "\n"))
	const appended = `{"op":"done","key":"9:z"}` + "\n"
	f.Fuzz(func(t *testing.T, text []byte) {
		rp, keep, err := readReplay(bytes.NewReader(text))
		if err != nil {
			return
		}
		if keep < 0 || keep > int64(len(text)) || keep > 0 && text[keep-1] != '\n' {
			t.Fatalf("keep = %d is not a line end of the %d-byte journal", keep, len(text))
		}
		journal := text[:keep:keep]
		tail := bytes.ReplaceAll(text, []byte("\n"), nil)
		for _, extra := range [][]byte{nil, tail} {
			got, k, err := readReplay(bytes.NewReader(append(journal, extra...)))
			if err != nil || k != keep || !reflect.DeepEqual(got, rp) {
				t.Fatalf("journal + %q: replay %+v, keep %d, err %v; want %+v, keep %d", extra, got, k, err, rp, keep)
			}
		}
		corrupt := append(append(append(journal, '#'), tail...), "\n"+appended...)
		if _, _, err := readReplay(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("a corrupt line before a complete record was accepted: %q", corrupt)
		}

		path := filepath.Join(t.TempDir(), "journal.ndjson")
		if err := os.WriteFile(path, text, 0o644); err != nil {
			t.Fatal(err)
		}
		jr, opened, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal rejected a journal the replay accepted: %v", err)
		}
		if !reflect.DeepEqual(opened, rp) {
			t.Fatalf("OpenJournal replayed %+v, want %+v", opened, rp)
		}
		if err := jr.Done(9, "z"); err != nil {
			t.Fatal(err)
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
		jr, resumed, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("resume after one appended record: %v", err)
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
		rp.Done[JobKey(9, "z")] = true
		delete(rp.Started, JobKey(9, "z"))
		if !reflect.DeepEqual(resumed, rp) {
			t.Fatalf("resume replayed %+v, want %+v", resumed, rp)
		}
	})
}

func TestJournalSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, _ := openJournal(t, path)
	// Start records do not count toward the fsync batch.
	for i := 0; i < donesPerSync; i++ {
		if err := jr.Start(i, "s", ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < donesPerSync-1; i++ {
		if err := jr.Done(i, "s"); err != nil {
			t.Fatal(err)
		}
	}
	// One done record short of the batch: still buffered.
	if b, err := os.ReadFile(path); err != nil || len(b) != 0 {
		t.Errorf("journal flushed before the batch filled: %d bytes, err=%v", len(b), err)
	}
	if err := jr.Done(donesPerSync-1, "s"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(string(b), "\n"), 2*donesPerSync; got != want {
		t.Errorf("after %d dones the file holds %d lines, want %d", donesPerSync, got, want)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

// A journaled run fsyncs once: RunSpecsOpts syncs at its end, and the
// Close that follows has nothing left to sync. A record appended after
// that sync still reaches the disk through Close.
func TestJournalOneSyncPerRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)
	netPath, lib := writeSpecFiles(t)
	var lines []string
	for i := 0; i < 3; i++ {
		lines = append(lines, fmt.Sprintf(`{"id":"n%d","net":%q,"sinks":["z"]}`, i, netPath))
	}
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, rp := openJournal(t, path)
	var out bytes.Buffer
	if _, err := RunSpecsOpts(context.Background(), &Engine{Workers: 2}, strings.NewReader(strings.Join(lines, "\n")), &out,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Journal: jr, Replay: rp}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("batch.journal_syncs").Value(); got != 1 {
		t.Errorf("3-job run then Close: %d journal syncs, want 1", got)
	}

	jr, _ = openJournal(t, path)
	if err := jr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := jr.Done(7, "late"); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("batch.journal_syncs").Value(); got != 2 {
		t.Errorf("after a record appended past the last sync: %d journal syncs, want 2", got)
	}
	jr, rp = openJournal(t, path)
	defer jr.Close()
	if !rp.Done[JobKey(7, "late")] || len(rp.Done) != 4 {
		t.Errorf("replayed Done = %v, want the 3 run jobs and 7:late", rp.Done)
	}
}

// TestJournalWriterReplayInterleaved: a run's two journal writers, the
// dispatcher (starts) and the emitter (dones), interleave freely — a
// job can finish and be journaled done before the dispatcher appends
// its start. Replay must still classify every job: done keys in Done
// only, started-but-not-done keys re-queued with their trace.
func TestJournalWriterReplayInterleaved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, _ := openJournal(t, path)
	tr := telemetry.MintTrace()
	for _, err := range []error{ // appended in this order
		jr.Start(0, "a", ""),
		jr.Done(0, "a"),
		jr.Done(2, "c"), // done before its start
		jr.Start(2, "c", tr.TraceID()),
		jr.Start(3, "d", tr.TraceID()),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	jr2, rp := openJournal(t, path)
	defer jr2.Close()
	if !rp.Done[JobKey(0, "a")] || !rp.Done[JobKey(2, "c")] || len(rp.Done) != 2 {
		t.Errorf("Done = %v, want exactly {0:a, 2:c}", rp.Done)
	}
	if got, ok := rp.Started[JobKey(3, "d")]; !ok || got != tr || len(rp.Started) != 1 {
		t.Errorf("Started = %v, want exactly {3:d: %s}", rp.Started, tr.TraceID())
	}
}

func TestJournalNilSafe(t *testing.T) {
	var jr *Journal
	if err := jr.Start(0, "a", ""); err != nil {
		t.Errorf("nil Start: %v", err)
	}
	if err := jr.Done(0, "a"); err != nil {
		t.Errorf("nil Done: %v", err)
	}
	if err := jr.Sync(); err != nil {
		t.Errorf("nil Sync: %v", err)
	}
	if err := jr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// decodeRecords parses an NDJSON result stream.
func decodeRecords(t *testing.T, b []byte) []ResultRecord {
	t.Helper()
	var recs []ResultRecord
	for ln, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if line == "" {
			continue
		}
		var rec ResultRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("output line %d: %v", ln+1, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestRunSpecsJournalResumeExactlyOnce is the kill-and-restart
// integration test: run one, interrupted mid-batch, emits a prefix and
// journals it; run two resumes from the journal, skips the done jobs,
// re-queues the in-flight ones, and finishes the rest; across the
// concatenated outputs every job appears exactly once. A third run
// finds nothing left to do.
func TestRunSpecsJournalResumeExactlyOnce(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	const n = 40
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf(`{"id":"n%d","net":%q,"sinks":["z"]}`, i, netPath))
	}
	stream := strings.Join(lines, "\n")
	journalPath := filepath.Join(t.TempDir(), "resume.journal")

	// Run 1: the batch context is cancelled after a dozen jobs start —
	// the graceful-shutdown path a SIGTERM takes in the CLIs.
	jr1, rp1 := openJournal(t, journalPath)
	if len(rp1.Done) != 0 || len(rp1.Started) != 0 {
		t.Fatalf("fresh journal replayed state: %+v", rp1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	eng := &Engine{Workers: 4, OnStart: func(int, string, telemetry.TraceContext) {
		if started.Add(1) == 12 {
			cancel()
		}
	}}
	var out1 bytes.Buffer
	st1, err := RunSpecsOpts(ctx, eng, strings.NewReader(stream), &out1,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Journal: jr1, Replay: rp1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if err := jr1.Close(); err != nil {
		t.Fatal(err)
	}
	if st1.Emitted >= n {
		t.Fatalf("interrupted run emitted all %d jobs; cancellation had no effect", n)
	}
	recs1 := decodeRecords(t, out1.Bytes())
	if len(recs1) != st1.Emitted {
		t.Fatalf("run 1 wrote %d lines but reported Emitted=%d", len(recs1), st1.Emitted)
	}

	// Run 2: resume. Done jobs are skipped, in-flight ones re-queued.
	jr2, rp2 := openJournal(t, journalPath)
	if len(rp2.Done) != st1.Emitted {
		t.Errorf("journal replayed %d done jobs, want %d (one per emitted line)", len(rp2.Done), st1.Emitted)
	}
	var out2 bytes.Buffer
	st2, err := RunSpecsOpts(context.Background(), &Engine{Workers: 4}, strings.NewReader(stream), &out2,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Journal: jr2, Replay: rp2})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	if st2.Skipped != st1.Emitted {
		t.Errorf("resume skipped %d jobs, want %d", st2.Skipped, st1.Emitted)
	}
	if st2.Requeued != len(rp2.Started) {
		t.Errorf("resume re-queued %d jobs, want %d in-flight journal entries", st2.Requeued, len(rp2.Started))
	}
	if st2.Emitted != n-st1.Emitted {
		t.Errorf("resume emitted %d jobs, want the remaining %d", st2.Emitted, n-st1.Emitted)
	}

	// Exactly-once: the concatenated outputs cover every job once.
	seen := make(map[int]int)
	for _, rec := range append(recs1, decodeRecords(t, out2.Bytes())...) {
		seen[rec.Index]++
		if want := fmt.Sprintf("n%d", rec.Index); rec.ID != want {
			t.Errorf("record index %d has id %q, want %q (index remap broken)", rec.Index, rec.ID, want)
		}
		if rec.Error != "" {
			t.Errorf("job %d failed: %s", rec.Index, rec.Error)
		}
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("job %d emitted %d times, want exactly once", i, seen[i])
		}
	}

	// Run 3: everything is done; nothing runs, nothing is emitted.
	jr3, rp3 := openJournal(t, journalPath)
	var out3 bytes.Buffer
	st3, err := RunSpecsOpts(context.Background(), &Engine{Workers: 4}, strings.NewReader(stream), &out3,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Journal: jr3, Replay: rp3})
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if err := jr3.Close(); err != nil {
		t.Fatal(err)
	}
	if st3.Skipped != n || st3.Emitted != 0 || out3.Len() != 0 {
		t.Errorf("third run: skipped=%d emitted=%d out=%q, want all %d skipped",
			st3.Skipped, st3.Emitted, out3.String(), n)
	}
}
