// Package group implements the group comms module of Table I: Flux
// groups define and manage collections of processes that can participate
// in collective operations.
//
// Membership changes are published as events, so the session-wide total
// order keeps every instance's view identical once the event is applied;
// queries are answered from the local view (eventually consistent).
package group

import (
	"fmt"
	"sort"
	"sync"

	"fluxgo/internal/broker"
	"fluxgo/internal/wire"
)

// updateBody is the group.update event payload.
type updateBody struct {
	Name   string `json:"name"`
	Member string `json:"member"`
	Join   bool   `json:"join"`
}

// Module is one group module instance.
type Module struct {
	h  *broker.Handle
	mu sync.Mutex
	// groups: name -> member set.
	groups map[string]map[string]bool
}

// New returns a group module instance.
func New() *Module { return &Module{groups: map[string]map[string]bool{}} }

// Factory loads the group module at every rank.
func Factory(rank, size int) broker.Module { return New() }

// Name implements broker.Module.
func (m *Module) Name() string { return "group" }

// Subscriptions implements broker.Module.
func (m *Module) Subscriptions() []string { return []string{"group.update"} }

// Init implements broker.Module.
func (m *Module) Init(h *broker.Handle) error { m.h = h; return nil }

// Shutdown implements broker.Module.
func (m *Module) Shutdown() {}

// Recv implements broker.Module.
func (m *Module) Recv(msg *wire.Message) {
	if msg.Type == wire.Event && msg.Topic == "group.update" {
		var body updateBody
		if err := msg.UnpackJSON(&body); err != nil {
			return
		}
		m.mu.Lock()
		set := m.groups[body.Name]
		if set == nil {
			set = map[string]bool{}
			m.groups[body.Name] = set
		}
		if body.Join {
			set[body.Member] = true
		} else {
			delete(set, body.Member)
			if len(set) == 0 {
				delete(m.groups, body.Name)
			}
		}
		m.mu.Unlock()
		return
	}
	if msg.Type != wire.Request {
		return
	}
	switch msg.Method() {
	case "join", "leave":
		m.recvUpdate(msg, msg.Method() == "join")
	case "list":
		m.recvList(msg)
	case "lsgroups":
		m.recvLsgroups(msg)
	default:
		m.h.RespondError(msg, broker.ErrnoNoSys, fmt.Sprintf("group: unknown method %q", msg.Method()))
	}
}

// recvUpdate publishes the membership change and responds with the event
// sequence; the caller's view reflects the change once that event has
// been applied locally.
func (m *Module) recvUpdate(msg *wire.Message, join bool) {
	var body updateBody
	if err := msg.UnpackJSON(&body); err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	if body.Name == "" || body.Member == "" {
		m.h.RespondError(msg, broker.ErrnoInval, "group: name and member required")
		return
	}
	body.Join = join
	seq, err := m.h.PublishEvent("group.update", body)
	if err != nil {
		m.h.RespondError(msg, broker.ErrnoProto, err.Error())
		return
	}
	m.h.Respond(msg, map[string]uint64{"seq": seq})
}

func (m *Module) recvList(msg *wire.Message) {
	var body struct {
		Name string `json:"name"`
	}
	if err := msg.UnpackJSON(&body); err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	m.mu.Lock()
	set := m.groups[body.Name]
	members := make([]string, 0, len(set))
	for member := range set {
		members = append(members, member)
	}
	m.mu.Unlock()
	sort.Strings(members)
	m.h.Respond(msg, map[string][]string{"members": members})
}

func (m *Module) recvLsgroups(msg *wire.Message) {
	m.mu.Lock()
	names := make([]string, 0, len(m.groups))
	for name := range m.groups {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)
	m.h.Respond(msg, map[string][]string{"groups": names})
}

// Join adds member to the named group, waiting until the membership
// change is visible at the local rank.
func Join(h *broker.Handle, name, member string) error {
	return update(h, "group.join", name, member)
}

// Leave removes member from the named group, waiting until the change is
// visible at the local rank.
func Leave(h *broker.Handle, name, member string) error {
	return update(h, "group.leave", name, member)
}

func update(h *broker.Handle, topic, name, member string) error {
	// Subscribe before issuing the update so the confirming event cannot
	// be missed.
	sub, err := h.Subscribe("group.update")
	if err != nil {
		return err
	}
	defer sub.Close()
	resp, err := h.RPC(topic, wire.NodeidAny, updateBody{Name: name, Member: member})
	if err != nil {
		return err
	}
	var body struct {
		Seq uint64 `json:"seq"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		return err
	}
	// Wait for the module's confirming event to pass our rank. The
	// broker hands an event to its modules before its handles, and a
	// module has one inbox FIFO, so once seq is seen here any later
	// group.list from this handle is received after that event.
	for ev := range sub.Chan() {
		if ev.Seq >= body.Seq {
			return nil
		}
	}
	return fmt.Errorf("group: subscription closed before update %d", body.Seq)
}

// List returns the sorted members of the named group as seen locally.
func List(h *broker.Handle, name string) ([]string, error) {
	resp, err := h.RPC("group.list", wire.NodeidAny, map[string]string{"name": name})
	if err != nil {
		return nil, err
	}
	var body struct {
		Members []string `json:"members"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		return nil, err
	}
	return body.Members, nil
}
