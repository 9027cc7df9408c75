package engine

import (
	"sync"

	"repro/internal/api"
)

// JobEventBroker is the fan-out hub behind GET /v1/jobs/{id}/events:
// the queue and lease pool publish JobEvents into a per-job ring, and
// each SSE subscriber gets a replay of what it missed plus a live
// channel. The ring bounds memory per job; a subscriber that falls
// further behind than its channel buffer is disconnected (its channel
// closed) and re-subscribes from its last seen sequence number — the
// same contract a dropped HTTP connection already forces.
type JobEventBroker struct {
	mu   sync.Mutex
	logs map[string]*jobEventLog
	// ring caps retained events per job (default 512).
	ring int
	// chanBuf is each subscriber's buffer (default 128).
	chanBuf int
}

type jobEventLog struct {
	nextSeq int64
	events  []api.JobEvent // trailing window; events[i].Seq is set
	subs    map[chan api.JobEvent]struct{}
}

// NewJobEventBroker builds a broker with default ring sizing.
func NewJobEventBroker() *JobEventBroker {
	return &JobEventBroker{logs: make(map[string]*jobEventLog), ring: 512, chanBuf: 128}
}

// Publish assigns the event's per-job sequence number, retains it in
// the ring, and fans it out, returning the assigned sequence (0 on a
// nil broker). Nil-safe, so publishing layers need no broker-wired
// check. Slow subscribers are dropped (channel closed), never blocked
// on — event publication sits on queue and lease-pool code paths that
// must not stall.
func (b *JobEventBroker) Publish(ev api.JobEvent) int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	l := b.logs[ev.JobID]
	if l == nil {
		l = &jobEventLog{nextSeq: 1, subs: make(map[chan api.JobEvent]struct{})}
		b.logs[ev.JobID] = l
	}
	ev.Seq = l.nextSeq
	l.nextSeq++
	l.events = append(l.events, ev)
	if len(l.events) > b.ring {
		l.events = l.events[len(l.events)-b.ring:]
	}
	var dropped []chan api.JobEvent
	for ch := range l.subs {
		select {
		case ch <- ev:
		default:
			dropped = append(dropped, ch)
		}
	}
	for _, ch := range dropped {
		delete(l.subs, ch)
		close(ch)
	}
	seq := ev.Seq
	b.mu.Unlock()
	return seq
}

// Seed inserts a recovered event preserving its recorded sequence
// number (journal replay at startup). Events must be seeded in
// ascending Seq order per job; the ring cap still applies. Live
// publication after seeding continues from max(seeded)+1.
func (b *JobEventBroker) Seed(ev api.JobEvent) {
	if b == nil || ev.Seq <= 0 {
		return
	}
	b.mu.Lock()
	l := b.logs[ev.JobID]
	if l == nil {
		l = &jobEventLog{nextSeq: 1, subs: make(map[chan api.JobEvent]struct{})}
		b.logs[ev.JobID] = l
	}
	if ev.Seq >= l.nextSeq {
		l.nextSeq = ev.Seq + 1
		l.events = append(l.events, ev)
		if len(l.events) > b.ring {
			l.events = l.events[len(l.events)-b.ring:]
		}
	}
	b.mu.Unlock()
}

// Advance bumps a job's next sequence number to at least seq+1 without
// publishing anything. Recovery uses it so sequence numbers stay
// monotonic across a restart even when the tail of the event history
// (async journal records lost in the crash, or records a compaction
// folded into a snapshot) is gone: subscribers resuming with
// Last-Event-ID never see a number reused for a different event.
func (b *JobEventBroker) Advance(jobID string, seq int64) {
	if b == nil || seq <= 0 {
		return
	}
	b.mu.Lock()
	l := b.logs[jobID]
	if l == nil {
		l = &jobEventLog{nextSeq: 1, subs: make(map[chan api.JobEvent]struct{})}
		b.logs[jobID] = l
	}
	if seq+1 > l.nextSeq {
		l.nextSeq = seq + 1
	}
	b.mu.Unlock()
}

// Seqs returns the last assigned sequence number per job (0 entries
// omitted). A compaction writes each job's into its snapshot frame so
// SSE numbering survives the records it drops.
func (b *JobEventBroker) Seqs() map[string]int64 {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int64, len(b.logs))
	for id, l := range b.logs {
		if l.nextSeq > 1 {
			out[id] = l.nextSeq - 1
		}
	}
	return out
}

// Subscribe returns the retained events with Seq > after, a live
// channel for everything published from now on, and a cancel func.
// The channel is closed by the broker if the subscriber lags; call
// cancel exactly once when done (it tolerates a broker-side close).
func (b *JobEventBroker) Subscribe(jobID string, after int64) ([]api.JobEvent, <-chan api.JobEvent, func()) {
	b.mu.Lock()
	l := b.logs[jobID]
	if l == nil {
		l = &jobEventLog{nextSeq: 1, subs: make(map[chan api.JobEvent]struct{})}
		b.logs[jobID] = l
	}
	var replay []api.JobEvent
	for _, ev := range l.events {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	ch := make(chan api.JobEvent, b.chanBuf)
	l.subs[ch] = struct{}{}
	b.mu.Unlock()

	cancel := func() {
		b.mu.Lock()
		// Ownership of close() follows map membership: Publish deletes
		// before closing, so a cancelled-after-drop channel is left alone.
		if _, live := l.subs[ch]; live {
			delete(l.subs, ch)
			close(ch)
		}
		b.mu.Unlock()
	}
	return replay, ch, cancel
}

// Forget drops a job's ring and disconnects its subscribers (job
// eviction; subscribers see a closed channel and re-subscribe, finding
// an empty ring).
func (b *JobEventBroker) Forget(jobID string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if l := b.logs[jobID]; l != nil {
		for ch := range l.subs {
			delete(l.subs, ch)
			close(ch)
		}
		delete(b.logs, jobID)
	}
	b.mu.Unlock()
}
