// Package barrier implements the barrier comms module of Table I:
// collective barriers across groups of processes.
//
// Each participant sends barrier.enter with the barrier name and total
// participant count. Module instances aggregate subtree entry counts and
// retransmit them upstream — the tree data reduction the paper's RPC
// overlay enables — and the session root completes the barrier when the
// count reaches nprocs, releasing every waiter along the reverse paths.
package barrier

import (
	"errors"
	"fmt"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

type enterBody struct {
	Name   string
	NProcs int
	Count  int // participants aggregated in this message
}

// bin is the binary-coded (codec v3) form of enterBody, the only form
// it is sent in: participants and aggregating slaves are all broker
// handles, so nothing outside the broker sends barrier.enter.
func (b enterBody) bin() wire.RawBody {
	w := wire.NewBinWriter(len(b.Name) + 12)
	w.String(b.Name)
	w.Uint(uint64(b.NProcs))
	w.Uint(uint64(b.Count))
	return w.Finish()
}

// decodeEnterBody reads a binary barrier.enter body; any other body is
// an error.
func decodeEnterBody(m *wire.Message) (body enterBody, err error) {
	r, ok := wire.NewBinReader(m.Payload)
	if !ok {
		return body, errors.New("barrier: enter body is not binary-coded")
	}
	body.Name = r.String()
	body.NProcs = int(r.Uint())
	body.Count = int(r.Uint())
	return body, r.Err()
}

type doneBody struct {
	Name  string `json:"name"`
	Error string `json:"error,omitempty"`
}

// state tracks one in-progress barrier at one module instance.
type state struct {
	nprocs  int
	count   int // total seen (root); accumulated (slaves)
	unsent  int
	pending []*wire.Message
}

// Module is one barrier comms module instance.
type Module struct {
	h        *broker.Handle
	barriers map[string]*state

	// Observability handles into the broker registry ("barrier.*").
	obsEnters    *obs.Counter // enter requests received (incl. aggregates)
	obsReleases  *obs.Counter // waiters released
	obsBatches   *obs.Counter // upstream aggregates sent
	obsActive    *obs.Gauge   // barriers currently in progress here
	histEnter    *obs.Histogram
	histComplete *obs.Histogram
}

// New returns a barrier module instance.
func New() *Module { return &Module{barriers: map[string]*state{}} }

// Factory loads the barrier module at every rank of a session.
func Factory(rank, size int) broker.Module { return New() }

// Name implements broker.Module.
func (m *Module) Name() string { return "barrier" }

// Subscriptions implements broker.Module.
func (m *Module) Subscriptions() []string { return nil }

// Init implements broker.Module.
func (m *Module) Init(h *broker.Handle) error {
	m.h = h
	reg := h.Broker().Metrics()
	m.obsEnters = reg.Counter("barrier.enters")
	m.obsReleases = reg.Counter("barrier.releases")
	m.obsBatches = reg.Counter("barrier.batches")
	m.obsActive = reg.Gauge("barrier.active")
	m.histEnter = reg.Histogram("barrier.enter_ns")
	m.histComplete = reg.Histogram("barrier.complete_ns")
	return nil
}

// Shutdown implements broker.Module.
func (m *Module) Shutdown() {}

// Recv implements broker.Module.
func (m *Module) Recv(msg *wire.Message) {
	if msg.Type != wire.Request {
		return
	}
	switch msg.Method() {
	case "enter":
		start := time.Now()
		m.recvEnter(msg)
		m.histEnter.Observe(time.Since(start))
	case "done":
		m.recvDone(msg)
	case "stats":
		m.recvStats(msg)
	default:
		m.h.RespondError(msg, broker.ErrnoNoSys, fmt.Sprintf("barrier: unknown method %q", msg.Method()))
	}
}

func (m *Module) recvEnter(msg *wire.Message) {
	body, err := decodeEnterBody(msg)
	if err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	if body.NProcs < 1 {
		m.h.RespondError(msg, broker.ErrnoInval, "barrier: nprocs < 1")
		return
	}
	if body.Count == 0 {
		body.Count = 1
	}
	m.obsEnters.Inc()
	st := m.barriers[body.Name]
	if st == nil {
		st = &state{nprocs: body.NProcs}
		m.barriers[body.Name] = st
		m.obsActive.Add(1)
	}
	if st.nprocs != body.NProcs {
		m.h.RespondError(msg, broker.ErrnoInval,
			fmt.Sprintf("barrier: %q nprocs mismatch (%d vs %d)", body.Name, body.NProcs, st.nprocs))
		return
	}
	st.count += body.Count
	st.unsent += body.Count
	st.pending = append(st.pending, msg)
	if m.h.Rank() == 0 && st.count >= st.nprocs {
		m.complete(body.Name, st, "")
	}
}

// complete releases every held waiter at this instance.
func (m *Module) complete(name string, st *state, errMsg string) {
	start := time.Now()
	for _, req := range st.pending {
		if errMsg != "" {
			m.h.RespondError(req, broker.ErrnoProto, errMsg)
		} else {
			m.h.Respond(req, struct{}{})
		}
	}
	m.obsReleases.Add(uint64(len(st.pending)))
	delete(m.barriers, name)
	m.obsActive.Add(-1)
	m.histComplete.Observe(time.Since(start))
}

// Idle implements broker.IdleBatcher: forward accumulated entry counts
// upstream once the inbox drains.
func (m *Module) Idle() {
	if m.h.Rank() == 0 {
		return
	}
	for name, st := range m.barriers {
		if st.unsent == 0 {
			continue
		}
		batch := enterBody{Name: name, NProcs: st.nprocs, Count: st.unsent}
		st.unsent = 0
		m.obsBatches.Inc()
		go m.sendBatch(batch)
	}
}

// sendBatch forwards one aggregate and re-injects completion locally.
func (m *Module) sendBatch(batch enterBody) {
	_, err := m.h.RPC("barrier.enter", wire.NodeidUpstream, batch.bin())
	done := doneBody{Name: batch.Name}
	if err != nil {
		done.Error = err.Error()
	}
	m.h.Send("barrier.done", uint32(m.h.Rank()), done)
}

func (m *Module) recvDone(msg *wire.Message) {
	var body doneBody
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	st := m.barriers[body.Name]
	if st == nil {
		return
	}
	m.complete(body.Name, st, body.Error)
}

// recvStats serves barrier.stats: this instance's live barrier state
// plus its slice of the broker metrics registry.
func (m *Module) recvStats(msg *wire.Message) {
	snap := m.h.Broker().Metrics().Snapshot()
	hists := map[string]obs.HistSnapshot{}
	for name, h := range snap.Hists {
		if len(name) > 8 && name[:8] == "barrier." {
			hists[name] = h
		}
	}
	m.h.Respond(msg, map[string]any{
		"rank":     m.h.Rank(),
		"active":   m.obsActive.Load(),
		"enters":   m.obsEnters.Load(),
		"releases": m.obsReleases.Load(),
		"batches":  m.obsBatches.Load(),
		"hists":    hists,
	})
}

// Enter is the client call: block until nprocs processes have entered
// the barrier with the same name. Names must be unique per collective
// operation.
func Enter(h *broker.Handle, name string, nprocs int) error {
	_, err := h.RPC("barrier.enter", wire.NodeidAny, enterBody{Name: name, NProcs: nprocs}.bin())
	return err
}
