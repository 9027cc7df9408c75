// The queue's log: the one durable record of a queue's state.
//
// A log is crc32c-framed records, little-endian:
//
//	[4B payload length][4B crc32c(payload)][payload JSON]
//
// It opens with a snapshot run — a head with the next job ID and the
// run's frame count, then a frame per job holding the job and its last
// SSE number, each followed by the job's ga_gen records — and goes on
// with a record per queue transition since, fsync-batched so the hot
// path pays one group commit instead of a sync per record. No frame
// grows with history, so journalMaxRecord bounds them all.
//
// A compaction (Queue.Checkpoint) writes a new snapshot run and the
// records appended since it was taken to a temp file, fsyncs it,
// rotates the old log to <path>.prev and renames the temp into place.
// A torn tail past the snapshot run — the kill -9 case — ends the
// readable log and is truncated. A damaged snapshot run is corruption:
// recovery reads .prev instead and never truncates the damaged file.
// Replay is idempotent, which lets the records appended during a
// compaction follow a snapshot that may already cover them.
package engine

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Log record types: six queue transitions, then the two that make up
// a snapshot run.
const (
	recSubmit   = "submit"   // job accepted; carries the full job snapshot
	recState    = "state"    // started / requeued-for-retry
	recProgress = "progress" // throttled progress watermark
	recFinish   = "finish"   // terminal transition; carries the result
	recLease    = "lease"    // lease pool grant/complete/expiry (SSE ring only)
	recGaGen    = "ga_gen"   // ga_search generation checkpoint; carries per-individual outcomes
	recSnapshot = "snapshot" // head of a snapshot run: the next job ID and the run's frame count
	recJob      = "job"      // one job of a snapshot run and its last SSE sequence number
)

// journalMaxRecord bounds a single frame's payload so a corrupted
// length field cannot make the reader allocate gigabytes.
const journalMaxRecord = 16 << 20

// journalSeqSlack is added to every job's recovered SSE sequence
// number. Async records (progress, lease) are fsync-batched, so a crash
// can lose a few events that subscribers already saw live; restarting
// numbering past a slack gap guarantees no sequence number is ever
// reused for a different event. Gaps are harmless to subscribers —
// Last-Event-ID only has to be monotonic.
const journalSeqSlack = 256

// journalFlushInterval is the group-commit cadence for async records.
const journalFlushInterval = 25 * time.Millisecond

// ErrCheckpointCorrupt reports a log that exists but cannot be trusted:
// its snapshot run is missing, cut short or inconsistent. Recovery
// salvages the previous generation when possible and wraps this error
// only when no generation is loadable.
var ErrCheckpointCorrupt = errors.New("engine: checkpoint corrupt")

var (
	ctrJournalErrors      = obs.Default().Counter("queue.journal_errors")
	ctrJournalTorn        = obs.Default().Counter("queue.journal_torn_tail")
	ctrCheckpointSalvaged = obs.Default().Counter("queue.checkpoint_salvaged")
	famJournalRecords     = obs.Default().CounterFamily("sbst_journal_records_total", "Write-ahead journal records appended, by type.", "type")
	gaugeJournalBytes     = obs.Default().GaugeFamily("sbst_journal_bytes", "Current log file size, snapshot run and unflushed buffer included.").Gauge()
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// JournalRecord is one framed log entry. The T field selects which of
// the optional fields are meaningful; unknown fields from a newer
// writer are ignored on replay.
type JournalRecord struct {
	T     string `json:"t"`
	JobID string `json:"job,omitempty"`
	// Seq is the SSE sequence number the broker assigned to the event
	// this record mirrors; replay seeds the event ring with it so
	// Last-Event-ID resume works across a restart. On a job frame it is
	// the job's last sequence number, which recovery numbers past.
	Seq int64 `json:"seq,omitempty"`
	// At is the transition time (submit → Created, state running →
	// Started, finish → Finished).
	At time.Time `json:"at,omitempty"`
	// NextID is the queue's ID counter after a submit minted its job ID,
	// or when a snapshot was taken.
	NextID int `json:"next_id,omitempty"`
	// Frames is the number of frames a snapshot head's run holds after
	// the head.
	Frames int `json:"frames,omitempty"`
	// Job is the full snapshot of a freshly submitted job, or of one job
	// of a snapshot run.
	Job      *Job            `json:"snapshot,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	State    JobState        `json:"state,omitempty"`
	Progress *Progress       `json:"progress,omitempty"`
	Result   *JobResult      `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	Lease    *api.LeaseEvent `json:"lease,omitempty"`
	// Ga is a ga_search job's completed-generation record (recGaGen):
	// the per-individual outcomes the GA replays to resume a search
	// bit-identically after a crash.
	Ga *GaGenRecord `json:"ga,omitempty"`
}

// Journal is an append-only crc32c-framed log with group-commit fsync
// batching. Safe for concurrent use; nil-safe on every method so wiring
// stays optional.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// cur is the file f appends to: path, or its .prev when recovery
	// salvaged that generation (or found it alone), until the next
	// compaction renames a new log into place.
	cur string
	// buf holds encoded frames not yet written to the file; flushed is
	// the file's length, run the length of its snapshot run.
	buf     []byte
	flushed int64
	run     int64
	dirty   bool
	err     error // sticky: after a write/sync failure the journal is dead
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// OpenJournal opens the log at path, creating it with an empty
// snapshot run, and returns its records for Queue.Recover (an empty run
// left out: it has nothing to install). A torn tail is truncated. A log
// whose snapshot run is damaged is left untouched: its .prev generation
// is read and appended to instead until the next compaction, and
// without an intact .prev OpenJournal fails with ErrCheckpointCorrupt.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	img, err := loadLog(path)
	if errors.Is(err, fs.ErrNotExist) {
		img, err = newLog(path)
	}
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(img.path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: open journal: %w", err)
	}
	if img.good < img.size {
		// Torn tail from a crash mid-append: drop it. The transitions it
		// held were never acknowledged as durable.
		ctrJournalTorn.Add(1)
		if err := f.Truncate(img.good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("engine: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(img.good, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("engine: seek journal: %w", err)
	}
	j := &Journal{f: f, path: path, cur: img.path, flushed: img.good, run: img.run,
		stop: make(chan struct{}), done: make(chan struct{})}
	gaugeJournalBytes.Set(float64(j.flushed))
	go j.flusher()
	recs := img.recs
	if recs[0].Frames == 0 && recs[0].NextID == 0 {
		recs = recs[1:]
	}
	return j, recs, nil
}

// newLog creates the log at path holding an empty snapshot run.
func newLog(path string) (*logImage, error) {
	head, err := encodeFrame(&JournalRecord{T: recSnapshot})
	if err != nil {
		return nil, err
	}
	tmp, err := createTemp(path, head)
	if err != nil {
		return nil, err
	}
	if err := installLog(tmp, path, "", func(string) {}); err != nil {
		return nil, err
	}
	n := int64(len(head))
	return &logImage{path: path, recs: []JournalRecord{{T: recSnapshot}}, size: n, good: n, run: n}, tmp.Close()
}

// decodeJournal parses frames from data, returning every record before
// the first undecodable frame and the byte offset where the good prefix
// ends. It never fails: a corrupt frame just ends the log early.
func decodeJournal(data []byte) ([]JournalRecord, int64) {
	var recs []JournalRecord
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, off
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > journalMaxRecord || int64(len(rest)) < 8+int64(n) {
			return recs, off
		}
		payload := rest[8 : 8+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off
		}
		var rec JournalRecord
		if json.Unmarshal(payload, &rec) != nil || rec.T == "" {
			return recs, off
		}
		recs = append(recs, rec)
		off += 8 + int64(n)
	}
}

// encodeFrame renders one record with its length+crc header.
func encodeFrame(rec *JournalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("engine: marshal journal record: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	return frame, nil
}

// logImage is one generation of a log as read from disk.
type logImage struct {
	path string // the file read: the log itself or its .prev
	recs []JournalRecord
	// size is the file's length, good the end of its readable prefix
	// and run the end of its snapshot run.
	size, good, run int64
}

// parseLog decodes a log's bytes and validates the snapshot run they
// must open with: every frame its head counts is there, each a job
// frame with a known state and a non-empty ID no other frame has, or a
// ga_gen record of the job frame before it.
func parseLog(data []byte) (*logImage, error) {
	recs, good := decodeJournal(data)
	if len(recs) == 0 || recs[0].T != recSnapshot || recs[0].Frames < 0 || recs[0].Frames >= len(recs) {
		return nil, fmt.Errorf("%w: no whole snapshot run at the head of the log", ErrCheckpointCorrupt)
	}
	img := &logImage{recs: recs, size: int64(len(data)), good: good}
	seen := make(map[string]bool, recs[0].Frames)
	for i, rec := range recs[:1+recs[0].Frames] {
		img.run += 8 + int64(binary.LittleEndian.Uint32(data[img.run:]))
		switch {
		case i == 0:
		case rec.T == recJob && rec.Job != nil && rec.Job.ID == rec.JobID && rec.JobID != "" &&
			!seen[rec.JobID] && queueGauges[rec.Job.State] != nil: // one gauge per known state
			seen[rec.JobID] = true
		case rec.T == recGaGen && rec.Ga != nil && rec.JobID == recs[i-1].JobID && seen[rec.JobID]:
		default:
			return nil, fmt.Errorf("%w: frame %d of the snapshot run is a stray %q record", ErrCheckpointCorrupt, i, rec.T)
		}
	}
	return img, nil
}

// readLog reads one generation. An empty file is no log at all.
func readLog(path string) (*logImage, error) {
	data, err := os.ReadFile(path)
	if err == nil && len(data) == 0 {
		err = fmt.Errorf("engine: log %s is empty: %w", path, fs.ErrNotExist)
	}
	if err != nil {
		return nil, err
	}
	img, err := parseLog(data)
	if err != nil {
		return nil, fmt.Errorf("engine: log %s: %w", path, err)
	}
	img.path = path
	return img, nil
}

// loadLog reads the newest intact generation of the log at path: the
// file itself, or its .prev when the file is missing or damaged. It
// returns fs.ErrNotExist when neither file exists and an error wrapping
// ErrCheckpointCorrupt when no generation is intact.
func loadLog(path string) (*logImage, error) {
	img, err := readLog(path)
	if err == nil || !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, ErrCheckpointCorrupt) {
		return img, err
	}
	prev, perr := readLog(prevPath(path))
	switch {
	case perr == nil:
		ctrCheckpointSalvaged.Add(1)
		return prev, nil
	case errors.Is(err, fs.ErrNotExist) && errors.Is(perr, fs.ErrNotExist):
		return nil, err
	}
	return nil, fmt.Errorf("engine: log %s unrecoverable (%v; previous: %v): %w", path, err, perr, ErrCheckpointCorrupt)
}

// prevPath is the previous generation of the log at path.
func prevPath(path string) string { return path + ".prev" }

// createTemp writes data to a new temp file beside path, for installLog.
func createTemp(path string, data []byte) (*os.File, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sbstd-log-*")
	if err != nil {
		return nil, fmt.Errorf("engine: log temp: %w", err)
	}
	_ = tmp.Chmod(0o644)
	if _, err := tmp.Write(data); err != nil {
		discardTemp(tmp)
		return nil, fmt.Errorf("engine: write log: %w", err)
	}
	return tmp, nil
}

func discardTemp(tmp *os.File) {
	tmp.Close()
	os.Remove(tmp.Name())
}

// installLog makes tmp the log at path: fsync it, rotate cur (the file
// the log was last appended to) to .prev unless it is .prev already,
// rename tmp into place and fsync the directory, calling hook after
// each of those steps. tmp stays open; on error it is removed.
func installLog(tmp *os.File, path, cur string, hook func(step string)) error {
	if err := tmp.Sync(); err != nil {
		discardTemp(tmp)
		return fmt.Errorf("engine: sync log: %w", err)
	}
	hook(stepSynced)
	if cur == path {
		if err := os.Rename(path, prevPath(path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			discardTemp(tmp)
			return fmt.Errorf("engine: rotate log: %w", err)
		}
	}
	hook(stepRotated)
	if err := os.Rename(tmp.Name(), path); err != nil {
		discardTemp(tmp)
		return fmt.Errorf("engine: rename log: %w", err)
	}
	syncDir(filepath.Dir(path))
	hook(stepRenamed)
	return nil
}

// tearLog is the engine.checkpoint.write shortwrite fault: a rename
// whose data did not land. cur rotates to .prev as in installLog and
// torn takes the live slot, best-effort like the fault it plays; it
// returns where cur's file is now.
func tearLog(path, cur string, torn []byte) string {
	if cur == path {
		_ = os.Rename(path, prevPath(path))
		cur = prevPath(path)
	}
	_ = os.WriteFile(path, torn, 0o644)
	return cur
}

// syncDir fsyncs a directory so the renames within it are durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// Append encodes and buffers one record. With sync set (submits and
// terminal transitions — the records whose loss would break exactly-once
// semantics) the whole buffer is flushed and fsynced before returning:
// one group commit covers every async record buffered before it.
// Without sync the record rides the next group commit (the flusher's
// tick, or the next sync append). Nil-safe.
func (j *Journal) Append(rec JournalRecord, sync bool) error {
	if j == nil {
		return nil
	}
	frame, err := encodeFrame(&rec)
	if err != nil {
		ctrJournalErrors.Add(1)
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if j.err != nil {
		return j.err
	}
	j.buf = append(j.buf, frame...)
	j.dirty = true
	famJournalRecords.Counter(rec.T).Add(1)
	gaugeJournalBytes.Set(float64(j.flushed + int64(len(j.buf))))
	if !sync {
		return nil
	}
	return j.flushLocked(true)
}

// flushLocked writes the buffer through and optionally fsyncs. Caller
// holds j.mu. A failure is sticky: the journal refuses further appends
// so recovery never trusts a half-written log.
func (j *Journal) flushLocked(fsync bool) error {
	if j.err != nil {
		return j.err
	}
	if len(j.buf) > 0 {
		n, err := j.f.Write(j.buf)
		j.flushed += int64(n)
		if err != nil {
			j.err = fmt.Errorf("engine: journal write: %w", err)
			ctrJournalErrors.Add(1)
			return j.err
		}
		j.buf = j.buf[:0]
	}
	if fsync {
		if err := j.f.Sync(); err != nil {
			j.err = fmt.Errorf("engine: journal sync: %w", err)
			ctrJournalErrors.Add(1)
			return j.err
		}
		j.dirty = false
	}
	return nil
}

// flusher is the group-commit loop for async records.
func (j *Journal) flusher() {
	defer close(j.done)
	tick := time.NewTicker(journalFlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-tick.C:
			j.mu.Lock()
			if j.dirty && !j.closed {
				_ = j.flushLocked(true)
			}
			j.mu.Unlock()
		}
	}
}

// growth returns the bytes appended past the log's snapshot run,
// unflushed records included, and the run's size: the two sides of the
// compaction trigger. Nil-safe.
func (j *Journal) growth() (tail, run int64) {
	if j == nil {
		return 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushed + int64(len(j.buf)) - j.run, j.run
}

// compact is the half of a compaction that holds the journal lock: tmp,
// holding a snapshot run of run bytes, gets the records from offset
// mark on and is installed as the log to append to. A failed journal
// contributes no records: its file may end in a torn write.
func (j *Journal) compact(tmp *os.File, mark, run int64, hook func(step string)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		discardTemp(tmp)
		return errors.New("engine: compact a closed journal")
	}
	size := run
	if j.flushLocked(false) == nil && j.flushed > mark {
		n, err := io.Copy(tmp, io.NewSectionReader(j.f, mark, j.flushed-mark))
		if err != nil {
			discardTemp(tmp)
			return fmt.Errorf("engine: copy journal tail: %w", err)
		}
		size += n
	}
	if err := installLog(tmp, j.path, j.cur, hook); err != nil {
		return err
	}
	j.f.Close()
	j.f, j.cur, j.flushed, j.run, j.dirty = tmp, j.path, size, run, false
	gaugeJournalBytes.Set(float64(size))
	return nil
}

// Close flushes, fsyncs, and closes the journal. Nil-safe; idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	err := j.flushLocked(true)
	j.closed = true
	close(j.stop)
	cerr := j.f.Close()
	j.mu.Unlock()
	<-j.done
	if err != nil {
		return err
	}
	return cerr
}

// Path returns the journal file path ("" on nil).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}
