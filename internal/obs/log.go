package obs

// The log plane: structured, bounded, rank-local rings of log records
// with a leveled Logger front end. Every broker owns one LogRing; the
// broker and its comms modules log through a Logger instead of ad-hoc
// printf, so records carry rank, membership epoch, severity, subsystem,
// and (when available) the trace id of the message being handled.
// Records at warn or worse are batch-forwarded up the overlay tree on
// each heartbeat — the TBON aggregation behind flux dmesg — while debug
// chatter stays rank-local and dies with the ring.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Severity levels, syslog-numbered (lower is more severe). They are the
// levels of fluxgo.Log too: this log plane is Table I's log module.
const (
	LevelErr    = 3
	LevelWarn   = 4
	LevelNotice = 5
	LevelInfo   = 6
	LevelDebug  = 7
)

// LevelName returns the conventional short name of a severity.
func LevelName(level int) string {
	switch level {
	case LevelErr:
		return "err"
	case LevelWarn:
		return "warn"
	case LevelNotice:
		return "notice"
	case LevelInfo:
		return "info"
	case LevelDebug:
		return "debug"
	default:
		return fmt.Sprintf("level%d", level)
	}
}

// ParseLevel maps a level name (or decimal number) to its severity;
// ok is false for unknown names.
func ParseLevel(s string) (level int, ok bool) {
	switch s {
	case "err", "error":
		return LevelErr, true
	case "warn", "warning":
		return LevelWarn, true
	case "notice":
		return LevelNotice, true
	case "info":
		return LevelInfo, true
	case "debug":
		return LevelDebug, true
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if s == "" {
		return 0, false
	}
	return n, true
}

// Record is one structured log entry. Seq is assigned by the origin
// ring and is monotone per (rank, boot): together with BootNS it lets
// an aggregator dedupe records that arrive both by dmesg gather and by
// heartbeat forwarding, across broker restarts.
type Record struct {
	Seq    uint64 `json:"seq"`
	TimeNS int64  `json:"time_ns"`
	BootNS int64  `json:"boot_ns,omitempty"` // origin broker incarnation
	Rank   int    `json:"rank"`
	Epoch  uint32 `json:"epoch"` // membership epoch when logged
	Level  int    `json:"level"`
	Sub    string `json:"sub"` // subsystem: cmb, kvs, mon, session, ...
	Trace  uint64 `json:"trace,omitempty"`
	Msg    string `json:"msg"`
}

// DefaultLogRecords is the default ring capacity of a broker's log
// ring: deep enough that a flight-recorder dump captures the run-up to
// a fault, bounded so a log storm cannot take the process down.
const DefaultLogRecords = 2048

// LogFilter selects records out of a ring snapshot. The zero value
// selects everything.
type LogFilter struct {
	MaxLevel int    // keep records with Level <= MaxLevel; 0 keeps all
	SinceSeq uint64 // keep records with Seq > SinceSeq
	SinceNS  int64  // keep records with TimeNS > SinceNS
	Max      int    // keep only the newest Max records; 0 keeps all
}

func (f LogFilter) keeps(r Record) bool {
	if f.MaxLevel != 0 && r.Level > f.MaxLevel {
		return false
	}
	if r.Seq <= f.SinceSeq {
		return false
	}
	if r.TimeNS <= f.SinceNS {
		return false
	}
	return true
}

// LogRing is a bounded ring of records. Append overwrites the oldest
// record once full; a nil ring drops everything. All methods are safe
// for concurrent use.
type LogRing struct {
	mu      sync.Mutex
	recs    []Record
	next    int
	full    bool
	seq     uint64
	boot    int64
	dropped uint64
}

// NewLogRing creates a ring holding up to capacity records. bootNS
// stamps every record with the owning broker's incarnation time (unix
// nanos); capacity <= 0 yields a ring that records nothing.
func NewLogRing(capacity int, bootNS int64) *LogRing {
	r := &LogRing{boot: bootNS}
	if capacity > 0 {
		r.recs = make([]Record, capacity)
	}
	return r
}

// Append stores one record, assigning its Seq (and BootNS when unset —
// forwarded records keep their origin stamps). Returns the assigned or
// preserved sequence number.
func (r *LogRing) Append(rec Record) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	if rec.Seq == 0 {
		r.seq++
		rec.Seq = r.seq
	}
	if rec.BootNS == 0 {
		rec.BootNS = r.boot
	}
	if len(r.recs) == 0 {
		r.dropped++
		r.mu.Unlock()
		return rec.Seq
	}
	if r.full {
		r.dropped++
	}
	r.recs[r.next] = rec
	r.next++
	if r.next == len(r.recs) {
		r.next = 0
		r.full = true
	}
	seq := rec.Seq
	r.mu.Unlock()
	return seq
}

// Snapshot returns the buffered records in arrival order, filtered.
func (r *LogRing) Snapshot(f LogFilter) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Record
	keep := func(rec Record) {
		if rec.TimeNS != 0 && f.keeps(rec) {
			out = append(out, rec)
		}
	}
	if r.full {
		for _, rec := range r.recs[r.next:] {
			keep(rec)
		}
	}
	for _, rec := range r.recs[:r.next] {
		keep(rec)
	}
	r.mu.Unlock()
	if f.Max > 0 && len(out) > f.Max {
		out = out[len(out)-f.Max:]
	}
	return out
}

// Len reports how many records are currently buffered.
func (r *LogRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.recs)
	}
	return r.next
}

// LastSeq returns the most recently assigned sequence number.
func (r *LogRing) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped reports how many records were overwritten or discarded.
func (r *LogRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Logger is the leveled front end to a LogRing. The verbosity gate is a
// single atomic load and records below it cost nothing — no format, no
// allocation — which is what keeps logging off the broker's hot path.
// A nil Logger drops everything, so callers never need a nil check.
type Logger struct {
	ring      *LogRing
	rank      int
	verbosity atomic.Int32
	epochFn   func() uint32
	now       func() int64
	mirror    func(Record)
	records   *Counter
}

// NewLogger wraps ring for the given rank, recording everything up to
// LevelDebug by default.
func NewLogger(ring *LogRing, rank int) *Logger {
	l := &Logger{ring: ring, rank: rank, now: func() int64 { return time.Now().UnixNano() }}
	l.verbosity.Store(LevelDebug)
	return l
}

// SetVerbosity caps recording: records with Level > v are dropped at
// the gate.
func (l *Logger) SetVerbosity(v int) {
	if l != nil {
		l.verbosity.Store(int32(v))
	}
}

// SetEpochFn installs the membership-epoch source stamped onto records.
func (l *Logger) SetEpochFn(f func() uint32) {
	if l != nil {
		l.epochFn = f
	}
}

// SetNow overrides the wall-clock source (tests, simulated clocks).
func (l *Logger) SetNow(f func() int64) {
	if l != nil && f != nil {
		l.now = f
	}
}

// SetMirror tees every recorded record to f — how a broker keeps its
// Config.Log sink (test logs, stderr) fed from the same call sites.
func (l *Logger) SetMirror(f func(Record)) {
	if l != nil {
		l.mirror = f
	}
}

// SetCounter attaches a records-recorded obs counter.
func (l *Logger) SetCounter(c *Counter) {
	if l != nil {
		l.records = c
	}
}

// Ring exposes the backing ring (dmesg, flight recorder).
func (l *Logger) Ring() *LogRing {
	if l == nil {
		return nil
	}
	return l.ring
}

// Enabled reports whether a record at level would be kept. Callers with
// expensive-to-build messages should gate on it.
func (l *Logger) Enabled(level int) bool {
	return l != nil && int32(level) <= l.verbosity.Load()
}

// LogT records one entry at the given severity, tagged with a trace id
// (0 for none). Below-verbosity calls return before formatting.
func (l *Logger) LogT(level int, sub string, trace uint64, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	var epoch uint32
	if l.epochFn != nil {
		epoch = l.epochFn()
	}
	rec := Record{
		TimeNS: l.now(),
		Rank:   l.rank,
		Epoch:  epoch,
		Level:  level,
		Sub:    sub,
		Trace:  trace,
		Msg:    msg,
	}
	rec.Seq = l.ring.Append(rec)
	rec.BootNS = l.ring.bootNS()
	if l.records != nil {
		l.records.Inc()
	}
	if l.mirror != nil {
		l.mirror(rec)
	}
}

func (r *LogRing) bootNS() int64 {
	if r == nil {
		return 0
	}
	return r.boot
}

// Log records one entry at the given severity.
func (l *Logger) Log(level int, sub, format string, args ...any) {
	l.LogT(level, sub, 0, format, args...)
}

// Errorf records at LevelErr.
func (l *Logger) Errorf(sub, format string, args ...any) {
	l.LogT(LevelErr, sub, 0, format, args...)
}

// Warnf records at LevelWarn.
func (l *Logger) Warnf(sub, format string, args ...any) {
	l.LogT(LevelWarn, sub, 0, format, args...)
}

// Noticef records at LevelNotice.
func (l *Logger) Noticef(sub, format string, args ...any) {
	l.LogT(LevelNotice, sub, 0, format, args...)
}

// Infof records at LevelInfo.
func (l *Logger) Infof(sub, format string, args ...any) {
	l.LogT(LevelInfo, sub, 0, format, args...)
}

// Debugf records at LevelDebug.
func (l *Logger) Debugf(sub, format string, args ...any) {
	l.LogT(LevelDebug, sub, 0, format, args...)
}

// MergeRecords time-orders the concatenation of per-rank record slices
// (each already in arrival order) — the reduce step of a dmesg gather.
func MergeRecords(slices ...[]Record) []Record {
	total := 0
	for _, s := range slices {
		total += len(s)
	}
	out := make([]Record, 0, total)
	for _, s := range slices {
		out = append(out, s...)
	}
	sortRecords(out)
	return out
}

// sortRecords orders by wall time, breaking ties by rank then seq.
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.TimeNS != b.TimeNS {
			return a.TimeNS < b.TimeNS
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Seq < b.Seq
	})
}

// DedupeRecords removes records sharing (rank, boot, seq) — duplicates
// arise when a record reaches the root both by heartbeat forwarding and
// by a dmesg gather. Input order is preserved for the survivors.
func DedupeRecords(recs []Record) []Record {
	type key struct {
		rank int
		boot int64
		seq  uint64
	}
	seen := make(map[key]bool, len(recs))
	out := recs[:0]
	for _, r := range recs {
		k := key{r.Rank, r.BootNS, r.Seq}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}
