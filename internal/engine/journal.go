// Write-ahead job journal: the durability layer between checkpoints.
//
// Checkpoints (checkpoint.go) snapshot the whole queue, which costs in
// proportion to everything the queue has ever finished — too much to
// pay per transition. The journal is what makes each transition
// durable: every one is appended as a crc32c-framed record before the
// queue moves on, fsync-batched so the hot path pays one group commit
// instead of a sync per record. On startup the journal is replayed on
// top of the newest loadable checkpoint (Queue.Recover). The checkpoint
// is the journal's compaction: the queue's compactor rewrites it when
// the journal has grown to max(1 MiB, the last snapshot's size), and
// after every successful checkpoint the covered prefix is truncated
// away, so the journal — and the replay a crash costs — stays bounded.
//
// Frame layout, little-endian:
//
//	[4B payload length][4B crc32c(payload)][payload JSON]
//
// A torn tail — short header, impossible length, checksum mismatch,
// unparsable JSON — marks the end of the readable log: everything
// before it is kept, the tail is dropped and the file truncated at the
// last good frame. Torn tails are expected under kill -9 and are never
// fatal. Replay is idempotent (replaying a prefix twice equals once),
// which is what makes the checkpoint-then-truncate dance crash-safe at
// every intermediate point.
package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Journal record types, one per queue transition.
const (
	recSubmit   = "submit"   // job accepted; carries the full job snapshot
	recState    = "state"    // started / requeued-for-retry
	recProgress = "progress" // throttled progress watermark
	recFinish   = "finish"   // terminal transition; carries the result
	recLease    = "lease"    // lease pool grant/complete/expiry (SSE ring only)
	recGaGen    = "ga_gen"   // ga_search generation checkpoint; carries per-individual outcomes
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

var (
	ctrJournalErrors   = obs.Default().Counter("queue.journal_errors")
	ctrJournalTorn     = obs.Default().Counter("queue.journal_torn_tail")
	famJournalRecords  = obs.Default().CounterFamily("sbst_journal_records_total", "Write-ahead journal records appended, by type.", "type")
	ctrJournalTruncate = obs.Default().CounterFamily("sbst_journal_truncations_total", "Journal prefix truncations after successful checkpoints.").Counter()
	gaugeJournalBytes  = obs.Default().GaugeFamily("sbst_journal_bytes", "Current journal file size including unflushed buffer.").Gauge()
)

// JournalRecord is one framed journal entry. The T field selects which
// of the optional fields are meaningful; unknown fields from a newer
// writer are ignored on replay.
type JournalRecord struct {
	T     string `json:"t"`
	JobID string `json:"job,omitempty"`
	// Seq is the SSE sequence number the broker assigned to the event
	// this record mirrors; replay seeds the event ring with it so
	// Last-Event-ID resume works across a restart.
	Seq int64 `json:"seq,omitempty"`
	// At is the transition time (submit → Created, state running →
	// Started, finish → Finished).
	At time.Time `json:"at,omitempty"`
	// NextID is the queue's ID counter after a submit minted its job ID.
	NextID int `json:"next_id,omitempty"`
	// Job is the full snapshot of a freshly submitted job.
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
	// buf holds encoded frames not yet written to the file; size is the
	// logical journal length (flushed bytes + buffered bytes).
	buf     []byte
	flushed int64
	dirty   bool
	err     error // sticky: after a write/sync failure the journal is dead
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// OpenJournal opens (creating if needed) the journal at path, replays
// its readable prefix into records, and truncates any torn tail. The
// returned records are in append order; feed them to Queue.Recover.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: open journal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("engine: read journal: %w", err)
	}
	recs, good := decodeJournal(data)
	if good < int64(len(data)) {
		// Torn tail from a crash mid-append: drop it. The transitions it
		// held were never acknowledged as durable.
		ctrJournalTorn.Add(1)
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("engine: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("engine: seek journal: %w", err)
	}
	j := &Journal{
		f:       f,
		path:    path,
		flushed: good,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	gaugeJournalBytes.Set(float64(good))
	go j.flusher()
	return j, recs, nil
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

// Mark returns the current logical journal length. Checkpoint takes the
// mark BEFORE snapshotting queue state: every record below the mark
// describes a mutation that is already visible in the snapshot (records
// are appended after their mutation), so truncating the prefix at the
// mark after the checkpoint lands durably can never drop an uncovered
// transition.
//
// A mark is an offset into the file as it is now, not a position in the
// record stream: Truncate rebases the file to start at its mark, so a
// mark is valid only until the next Truncate and is meant for exactly
// one. The journal does not check that — the queue's compaction mutex
// (Queue.Checkpoint) is what guarantees no second mark is taken between
// a mark and the Truncate that consumes it.
func (j *Journal) Mark() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushed + int64(len(j.buf))
}

// Truncate drops the journal prefix below mark (records now covered by
// a durable checkpoint), keeping the tail. The tail is rewritten into a
// temp file and atomically renamed over the journal, so a crash at any
// point leaves either the old full journal or the new tail — both
// replay correctly (the old journal merely replays covered records,
// which is idempotent). mark must be the latest Mark taken, with no
// other Truncate since (see Mark); after Truncate(Mark()) the journal
// is empty and Mark is 0 again. The journal mutex is held across the
// rewrite and its fsyncs, so appends wait — acceptable because the
// queue compacts once per max(1 MiB, snapshot) of records, not once per
// job. Nil-safe.
func (j *Journal) Truncate(mark int64) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.err != nil {
		return j.err
	}
	if err := j.flushLocked(true); err != nil {
		return err
	}
	if mark <= 0 {
		return nil
	}
	if mark > j.flushed {
		mark = j.flushed
	}
	tail := make([]byte, j.flushed-mark)
	if len(tail) > 0 {
		if _, err := j.f.ReadAt(tail, mark); err != nil {
			j.err = fmt.Errorf("engine: journal tail read: %w", err)
			ctrJournalErrors.Add(1)
			return j.err
		}
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".sbstd-journal-*")
	if err != nil {
		return fmt.Errorf("engine: journal truncate temp: %w", err)
	}
	_ = tmp.Chmod(0o644)
	if _, err := tmp.Write(tail); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: journal truncate write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: journal truncate sync: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: journal truncate rename: %w", err)
	}
	syncDir(dir)
	old := j.f
	j.f = tmp
	j.flushed = int64(len(tail))
	old.Close()
	ctrJournalTruncate.Add(1)
	gaugeJournalBytes.Set(float64(j.flushed))
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
