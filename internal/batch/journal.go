package batch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"elmore/internal/faultinject"
	"elmore/internal/telemetry"
)

// Journal is the crash-safe checkpoint log of a batch run: an
// append-only NDJSON file with one record per state transition,
//
//	{"op":"start","key":"17:n17","trace":"..."}
//	{"op":"done","key":"17:n17"}
//
// where the key is the job's position in the spec stream plus its ID
// (JobKey). "start" is appended once a worker has taken the job; "done"
// only after the job's result line has reached the output writer, so on
// replay a done job is provably emitted exactly once and a
// started-but-not-done job was in flight when the process died and
// must be re-queued. A start may reach the file after its job's done;
// replay keeps such a job done.
//
// Durability is batched: the file is fsynced every donesPerSync done
// records (and on Close), bounding both the data-loss window after a
// crash — at most donesPerSync duplicated result lines, never a lost
// one — and the per-job fsync cost. A torn final line (the crash
// happened mid-append) is tolerated on replay and cut off before the
// resumed run appends; torn interior lines are not tolerated, as they
// indicate corruption rather than an interrupted append.
//
// A Journal is safe for concurrent use. A batch run has two writers:
// the goroutine that hands jobs to workers appends the starts, and the
// goroutine that emits results appends the dones.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	pending int  // done records since the last fsync
	dirty   bool // any record appended since the last fsync
}

// donesPerSync is the number of done records between fsyncs.
const donesPerSync = 32

// journalRecord is one NDJSON journal line. Start records carry the
// job's trace ID so a crashed run's in-flight jobs keep their lineage
// across resume; done records don't repeat it. Journals without the
// field replay unchanged, and their re-queued jobs mint a fresh trace.
type journalRecord struct {
	Op    string `json:"op"` // "start" or "done"
	Key   string `json:"key"`
	Trace string `json:"trace,omitempty"`
}

// JobKey names one job for the journal: its position in the spec
// stream plus its caller-chosen ID. The index keeps distinct jobs with
// duplicate (or empty) IDs distinct; the ID catches a resume against a
// reordered spec file.
func JobKey(index int, id string) string {
	return fmt.Sprintf("%d:%s", index, id)
}

// Replay is the state recovered from an existing journal.
type Replay struct {
	// Done holds the keys of jobs whose results were fully emitted.
	Done map[string]bool
	// Started maps the keys of jobs that were picked up but never
	// finished — in flight when the previous run died — to the trace
	// their last start record carried (the zero value when it carried
	// none). Keys in Done are removed from Started.
	Started map[string]telemetry.TraceContext
}

// OpenJournal opens (creating if needed) the journal at path, replays
// any existing records, and returns the journal positioned for
// appending plus the recovered state. A torn tail that the replay
// tolerated is truncated away first, so the next record starts a line
// of its own instead of extending the torn one into a corrupt interior
// line that would fail the resume after next.
func OpenJournal(path string) (*Journal, *Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("batch: journal: %w", err)
	}
	rp, keep, err := readReplay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("batch: journal: %w", err)
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("batch: journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, rp, nil
}

// readReplay scans the journal records from r and returns them with
// keep, the byte offset just past the last line it accepted. A torn
// final line is tolerated and left beyond keep (the previous process
// died mid-append); any other malformed line fails the replay.
func readReplay(r io.Reader) (*Replay, int64, error) {
	rp := &Replay{Done: make(map[string]bool), Started: make(map[string]telemetry.TraceContext)}
	br := bufio.NewReader(r)
	lineNo := 0
	var keep int64
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			// A non-empty remainder without a trailing newline is the
			// torn tail of an interrupted append: ignore it.
			return rp, keep, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("batch: journal: %w", err)
		}
		lineNo++
		end := keep + int64(len(line))
		line = strings.TrimSpace(line)
		if line == "" {
			keep = end
			continue
		}
		var rec journalRecord
		if derr := json.Unmarshal([]byte(line), &rec); derr != nil {
			// Is this the final line? Peek: EOF right after means the
			// newline made it but the payload did not decode — still
			// treat an undecodable *last* line as torn.
			if _, perr := br.Peek(1); perr == io.EOF {
				return rp, keep, nil
			}
			return nil, 0, fmt.Errorf("batch: journal line %d: %w", lineNo, derr)
		}
		switch rec.Op {
		case "start":
			if !rp.Done[rec.Key] {
				rp.Started[rec.Key], _ = telemetry.ParseTraceID(rec.Trace)
			}
		case "done":
			rp.Done[rec.Key] = true
			delete(rp.Started, rec.Key)
		default:
			if _, perr := br.Peek(1); perr == io.EOF {
				return rp, keep, nil
			}
			return nil, 0, fmt.Errorf("batch: journal line %d: unknown op %q", lineNo, rec.Op)
		}
		keep = end
	}
}

// append writes one record; countSync counts it toward the fsync
// batching.
func (j *Journal) append(op, key, trace string, countSync bool) error {
	if j == nil {
		return nil
	}
	if err := faultinject.Fire("batch.journal"); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	b, err := json.Marshal(journalRecord{Op: op, Key: key, Trace: trace})
	if err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(b); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	j.dirty = true
	if countSync {
		j.pending++
		if j.pending >= donesPerSync {
			return j.syncLocked()
		}
	}
	return nil
}

// Start records that the job was taken by a worker; trace is the job's
// lineage ID.
func (j *Journal) Start(index int, id, trace string) error {
	return j.append("start", JobKey(index, id), trace, false)
}

// Done records that the job's result was emitted. Every donesPerSync
// done records the journal is flushed and fsynced.
func (j *Journal) Done(index int, id string) error {
	return j.append("done", JobKey(index, id), "", true)
}

// syncLocked flushes the buffer and fsyncs, unless nothing was
// appended since the last sync; callers hold j.mu.
func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	j.pending = 0
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	j.dirty = false
	telemetry.C("batch.journal_syncs").Inc()
	return nil
}

// Sync flushes the buffer and fsyncs the journal file. It does nothing
// when no record was appended since the last sync.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// Close syncs (as Sync does) and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	serr := j.syncLocked()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
