// Package twin implements the digital-twin scheduling service behind
// cmd/lumosweb: long-lived per-client sessions that mirror a cluster's
// submission queue in a continuously-advancing simulation and answer
// what-if queries against it.
//
// Each Session holds a cluster shape (a calibrated profile's geometry or a
// client-supplied cores/partitions pair), an append-only submission log,
// and a simulation clock. The twin itself is a deterministic function of
// its log and clock: the session's baseline schedule is one live
// sim.Checkpoint paused at the clock, which a submission extends and an
// advance runs forward, publishing the decision events strictly before the
// new clock to SSE subscribers through a bounded, drop-oldest obs.Hub.
// Because submissions are clamped to the current clock and the simulator
// is causal — a job cannot change decisions made strictly before its
// submit time — the published event prefix is exactly that of a cold
// replay of the log, and never contradicts a later one. A mutation costs
// the simulation of its own batch and the live queue, whatever the depth
// of the log.
//
// A what-if query forks the twin: the log is run to completion under the
// baseline and N candidate policy x backfill x fault configurations
// concurrently on the internal/par worker pool — fault-free runs fork
// checkpoints held at the session clock, the others replay from t=0 — the
// outcomes are scored on the jobs still pending at the session clock, and
// a ranking with wait/bsld/util deltas against the session's own
// configuration is returned. Replies are deterministic for a
// fixed log, clock, and seed, independent of worker count: candidate runs
// are indexed, fault injection is seeded, and ties rank by candidate
// order.
//
// Resource bounds are explicit so thousands of sessions fit one process:
// an LRU cap on live sessions (the oldest is evicted, its subscribers
// disconnected), a per-session submission cap, a per-session subscriber
// budget, fixed-size per-subscriber event rings, and a candidate cap per
// what-if. A Manager owns exactly one background goroutine — the
// wall-clock ticker that advances auto-ticking sessions — so the
// goroutine count is bounded by live SSE connections, which the HTTP
// layer owns.
package twin

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"crosssched/internal/trace"
)

// Sentinel errors; the HTTP layer maps these to status codes.
var (
	// ErrClosed: the manager or session has been shut down.
	ErrClosed = errors.New("twin: closed")
	// ErrNotFound: no session with that ID.
	ErrNotFound = errors.New("twin: session not found")
	// ErrBudget: a resource cap (jobs, subscribers, candidates) was hit.
	ErrBudget = errors.New("twin: budget exhausted")
	// ErrEmpty: the operation needs pending jobs and there are none.
	ErrEmpty = errors.New("twin: nothing to replay")
)

// Config bounds a Manager. The zero value gets serving-safe defaults.
type Config struct {
	// MaxSessions caps live sessions; creating one more evicts the least
	// recently used (default 2048).
	MaxSessions int
	// MaxJobs caps a session's submission log (default 10000).
	MaxJobs int
	// MaxSubscribers is the per-session SSE budget (default 16) — the
	// per-session goroutine budget, since subscribers are the only
	// goroutines a session induces.
	MaxSubscribers int
	// EventBuffer is the per-subscriber ring size (default 256). A slow
	// client loses the oldest events, never the session.
	EventBuffer int
	// MaxCandidates caps one what-if's fan-out (default 64).
	MaxCandidates int
	// TickInterval is the wall-clock granularity at which auto-ticking
	// sessions advance (default 1s).
	TickInterval time.Duration
	// StateDir, when non-empty, makes sessions durable: each gets a
	// write-ahead journal under StateDir/<id>/, NewManager recovers
	// journaled sessions on startup, and LRU eviction parks sessions to
	// disk instead of destroying them. Empty (the default) keeps today's
	// in-memory-only behavior, bit-identical.
	StateDir string
	// Fsync and FsyncEvery pick the journal durability policy (default:
	// FsyncInterval every 100ms).
	Fsync      FsyncPolicy
	FsyncEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 2048
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 10000
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 16
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 64
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Second
	}
	return c
}

// Manager owns the session table: creation, LRU eviction (spill-to-disk
// parking when durable), lookup with transparent reactivation, the shared
// wall-clock ticker, and teardown. All methods are safe for concurrent
// use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*list.Element // value: *Session
	lru      *list.List               // front = most recently used
	parked   map[string]bool          // durable sessions spilled to disk
	parking  map[string]chan struct{} // evictions still being retired
	reviving map[string]*recoverOp    // single-flight reactivations
	metrics  Metrics                  // guarded by mu
	seq      uint64
	closed   bool

	stop chan struct{}
	done chan struct{}
}

// recoverOp de-duplicates concurrent reactivations of one parked session:
// the first Get replays the journal, later Gets wait on done.
type recoverOp struct {
	done chan struct{}
	s    *Session
	err  error
}

// sessionID is the manager's ID scheme; recovery trusts only directory
// names matching it.
var sessionID = regexp.MustCompile(`^s(\d{6,})$`)

// NewManager starts a manager (and its single ticker goroutine). With
// StateDir set it first recovers every journaled session found there —
// torn or corrupt journal tails are truncated at the first bad frame, not
// fatal — loading up to MaxSessions into memory (newest last, so they are
// most recently used) and registering any surplus as parked.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*list.Element),
		lru:      list.New(),
		parked:   make(map[string]bool),
		parking:  make(map[string]chan struct{}),
		reviving: make(map[string]*recoverOp),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if m.cfg.StateDir != "" {
		m.recoverAll()
	}
	go m.tickLoop()
	return m
}

// recoverAll scans StateDir and rebuilds sessions. It runs before the
// manager is published, so no locking is needed; failures skip the
// directory (the journal stays on disk untouched) rather than failing
// startup.
func (m *Manager) recoverAll() {
	_ = os.MkdirAll(m.cfg.StateDir, 0o755)
	ents, err := os.ReadDir(m.cfg.StateDir)
	if err != nil {
		return
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && sessionID.MatchString(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if n, err := strconv.ParseUint(sessionID.FindStringSubmatch(id)[1], 10, 64); err == nil && n > m.seq {
			m.seq = n
		}
		if m.lru.Len() >= m.cfg.MaxSessions {
			// Surplus stays on disk; the first Get reactivates it (and
			// parks a colder session in exchange).
			m.parked[id] = true
			continue
		}
		s, truncated, err := m.recoverSession(id)
		if truncated {
			m.metrics.Truncations++
		}
		if err != nil {
			continue
		}
		m.sessions[id] = m.lru.PushFront(s)
		m.metrics.Recovered++
	}
}

// recoverSession rebuilds one session from its journal directory and
// reopens the journal for appending. The restore invariant: a session is a
// deterministic function of its log and clock, so simulating the journaled
// log once up to the journaled clock reproduces the pre-crash published
// event prefix byte-for-byte.
func (m *Manager) recoverSession(id string) (*Session, bool, error) {
	dir := filepath.Join(m.cfg.StateDir, id)
	recs, truncated, err := replayJournal(dir)
	if err != nil {
		return nil, truncated, err
	}
	if len(recs) == 0 || recs[0].Op != opCreate || recs[0].Cfg == nil {
		return nil, truncated, fmt.Errorf("twin: journal %s: missing create record", dir)
	}
	cfg, err := fromJournalConfig(recs[0].Cfg)
	if err != nil {
		return nil, truncated, err
	}
	s, err := newSession(id, cfg, m.cfg)
	if err != nil {
		return nil, truncated, err
	}
	var jobs []trace.Job
	var now float64
	for _, rec := range recs[1:] {
		switch rec.Op {
		case opSubmit:
			jobs = append(jobs, fromJournalJobs(rec.Jobs)...)
		case opAdvance:
			if rec.To > now {
				now = rec.To
			}
		}
	}
	if err := s.restore(jobs, now); err != nil {
		return nil, truncated, err
	}
	if jr, err := openJournal(dir, m.journalOpts()); err != nil {
		// Recovered but not re-journalable: serve it ephemeral rather
		// than lose it. Pre-publication, so direct field writes are safe.
		s.ephemeral = true
		m.metrics.Ephemeral++
	} else {
		s.attachJournal(jr, m.noteEphemeral)
	}
	return s, truncated, nil
}

func (m *Manager) journalOpts() journalOpts {
	return journalOpts{policy: m.cfg.Fsync, every: m.cfg.FsyncEvery}
}

// noteEphemeral is the sessions' degradation hook (called under the
// session's own lock; s.mu -> m.mu is the safe acquisition order).
func (m *Manager) noteEphemeral() {
	m.mu.Lock()
	m.metrics.Ephemeral++
	m.mu.Unlock()
}

// Metrics are a manager's durability counters: sessions rebuilt from their
// write-ahead journal (at startup or on parked-session reactivation), torn
// or corrupt journal tails truncated at the first bad frame, sessions
// spilled to disk by LRU eviction, parked sessions transparently
// reactivated on lookup, and sessions degraded to ephemeral (journal-less)
// mode after a journal write failure.
type Metrics struct {
	Recovered   int64 `json:"twin_recovered"`
	Truncations int64 `json:"twin_truncations"`
	Parked      int64 `json:"twin_parked"`
	Reactivated int64 `json:"twin_reactivated"`
	Ephemeral   int64 `json:"twin_ephemeral"`
}

// Metrics returns a copy of the manager's durability counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics
}

// Create builds a session and registers it, evicting the least recently
// used session when the cap is reached — to disk when it has a journal,
// destructively otherwise.
func (m *Manager) Create(cfg SessionConfig) (*Session, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("s%06d", m.seq)
	m.mu.Unlock()

	// Build outside the lock: profile resolution and validation don't need
	// the table.
	s, err := newSession(id, cfg, m.cfg)
	if err != nil {
		return nil, err
	}
	if m.cfg.StateDir != "" {
		m.journalCreate(s)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		s.Close()
		return nil, ErrClosed
	}
	victims := m.insertLocked(s)
	m.mu.Unlock()
	m.retire(victims)
	return s, nil
}

// journalCreate opens the new session's journal and writes its create
// record. Failure degrades the session to ephemeral instead of failing
// the create: no durability beats no service.
func (m *Manager) journalCreate(s *Session) {
	dir := filepath.Join(m.cfg.StateDir, s.ID)
	jr, err := openJournal(dir, m.journalOpts())
	if err == nil {
		err = jr.append(&record{Op: opCreate, ID: s.ID, Cfg: toJournalConfig(s.cfg)})
		if err != nil {
			_ = jr.close()
		}
	}
	if err != nil {
		s.ephemeral = true
		m.noteEphemeral()
		return
	}
	s.attachJournal(jr, m.noteEphemeral)
}

// insertLocked registers s as most recently used and pops LRU entries
// while over the cap, returning them for the caller to retire outside the
// table lock. Each victim is recorded in parking until retire settles it,
// so lookups in between wait instead of missing it. Caller holds m.mu.
func (m *Manager) insertLocked(s *Session) []*Session {
	var victims []*Session
	for m.lru.Len() >= m.cfg.MaxSessions {
		oldest := m.lru.Back()
		old := oldest.Value.(*Session)
		m.lru.Remove(oldest)
		delete(m.sessions, old.ID)
		m.parking[old.ID] = make(chan struct{})
		victims = append(victims, old)
	}
	m.sessions[s.ID] = m.lru.PushFront(s)
	return victims
}

// retire disposes of evicted sessions: durable ones are parked (journal
// flushed and closed, THEN registered as parked, so a reactivation can
// never read a journal mid-flush), the rest are destroyed. Either way the
// victim then leaves parking, waking lookups that waited for it. A parked
// session answers its subscribers with a terminal "parked" reason.
func (m *Manager) retire(victims []*Session) {
	for _, old := range victims {
		parked := old.park()
		if !parked {
			old.closeReason("evicted")
		}
		m.mu.Lock()
		if parked && !m.closed {
			m.parked[old.ID] = true
			m.metrics.Parked++
		}
		close(m.parking[old.ID])
		delete(m.parking, old.ID)
		m.mu.Unlock()
	}
}

// settleLocked waits, releasing m.mu meanwhile, until id is not being
// evicted, so the caller finds it either live or parked. Caller holds m.mu.
func (m *Manager) settleLocked(id string) {
	for {
		ch, ok := m.parking[id]
		if !ok {
			return
		}
		m.mu.Unlock()
		<-ch
		m.mu.Lock()
	}
}

// Get returns the session and marks it most recently used. A parked
// session is transparently reactivated from its journal first (single-
// flight: concurrent Gets share one replay); one still being parked is
// waited for first.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	m.settleLocked(id)
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if el, ok := m.sessions[id]; ok {
		m.lru.MoveToFront(el)
		s := el.Value.(*Session)
		m.mu.Unlock()
		return s, nil
	}
	if op, ok := m.reviving[id]; ok {
		m.mu.Unlock()
		<-op.done
		return op.s, op.err
	}
	if !m.parked[id] {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	op := &recoverOp{done: make(chan struct{})}
	m.reviving[id] = op
	m.mu.Unlock()

	s, truncated, err := m.recoverSession(id) // journal replay, outside the lock

	var victims []*Session
	m.mu.Lock()
	delete(m.reviving, id)
	if truncated {
		m.metrics.Truncations++
	}
	if err == nil && m.closed {
		err = ErrClosed
	}
	if err == nil {
		delete(m.parked, id)
		m.metrics.Recovered++
		m.metrics.Reactivated++
		victims = m.insertLocked(s)
	}
	m.mu.Unlock()
	if err != nil {
		if s != nil {
			s.Close()
		}
		op.err = fmt.Errorf("twin: reactivate %q: %w", id, err)
		close(op.done)
		return nil, op.err
	}
	op.s = s
	close(op.done)
	m.retire(victims)
	return s, nil
}

// Delete tears a session down — live or parked — and removes its durable
// state. It reports ErrNotFound for unknown IDs. A session still being
// parked or reactivated is waited for first, so the finishing transition
// cannot bring it back.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	for {
		m.settleLocked(id)
		op, ok := m.reviving[id]
		if !ok {
			break
		}
		m.mu.Unlock()
		<-op.done
		m.mu.Lock()
	}
	el, ok := m.sessions[id]
	if ok {
		m.lru.Remove(el)
		delete(m.sessions, id)
	}
	wasParked := m.parked[id]
	delete(m.parked, id)
	m.mu.Unlock()
	if !ok && !wasParked {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if ok {
		el.Value.(*Session).Close()
	}
	if m.cfg.StateDir != "" {
		_ = os.RemoveAll(filepath.Join(m.cfg.StateDir, id))
	}
	return nil
}

// Len reports the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// Close stops the ticker and tears down every session, disconnecting
// subscribers so in-flight SSE requests can drain. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var all []*Session
	for el := m.lru.Front(); el != nil; el = el.Next() {
		all = append(all, el.Value.(*Session))
	}
	m.sessions = map[string]*list.Element{}
	m.lru.Init()
	m.mu.Unlock()

	close(m.stop)
	<-m.done
	for _, s := range all {
		s.Close()
	}
}

// tickLoop advances auto-ticking sessions by wall-clock time. It is the
// manager's only background goroutine.
func (m *Manager) tickLoop() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.TickInterval)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			dt := now.Sub(last).Seconds()
			last = now
			for _, s := range m.ticking() {
				// Errors (closed session racing eviction) are benign here.
				_ = s.AdvanceBy(s.cfg.TickRate * dt)
			}
		}
	}
}

// ticking snapshots the sessions with a tick rate, so Advance runs outside
// the table lock.
func (m *Manager) ticking() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Session
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if s := el.Value.(*Session); s.cfg.TickRate > 0 {
			out = append(out, s)
		}
	}
	return out
}
