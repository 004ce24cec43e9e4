package broker

import (
	"fmt"
	"time"

	"fluxgo/internal/wire"
)

// Module is a comms module — the paper's loadable service plugin. A
// module is loaded into a broker's address space and exchanges messages
// with it over in-memory mailboxes.
//
// Recv is called on a single dedicated goroutine per module instance, in
// arrival order, with requests addressed to the module's service name
// and events matching its subscriptions. Recv may block (for example on
// Handle.RPC to an upstream module instance); further messages simply
// queue. Events are shared and must be treated as read-only. Requests
// and events share one FIFO, so a request that a client of this broker,
// or of a rank below it, sends after seeing event N is received after N.
type Module interface {
	// Name is the service name: requests with topic "<name>.*" are
	// dispatched to this module.
	Name() string
	// Subscriptions returns event-topic prefixes the module wants.
	Subscriptions() []string
	// Init is called once, before any Recv, with the module's Handle.
	Init(h *Handle) error
	// Recv processes one request or subscribed event.
	Recv(msg *wire.Message)
	// Shutdown is called once after the last Recv.
	Shutdown()
}

// IdleBatcher is an optional Module extension. When implemented, Idle is
// called on the module goroutine each time the module's inbox drains,
// i.e. after a burst of messages has been processed with nothing queued
// behind it. Modules use this to aggregate upstream traffic — the tree
// "data reductions ... aggregating and retransmitting upstream requests
// between instances of a comms module" from the paper. Batching is a
// performance heuristic only; correctness must not depend on where batch
// boundaries fall. Idle need not flush on every call: a module may hold
// back while its previous batch is unanswered, so that the parent's
// answers, not the drains, clock the flushes and contributions that
// arrive meanwhile share one batch (the kvs fence does this). An answer
// that re-enters the module's inbox triggers the next Idle.
type IdleBatcher interface {
	Idle()
}

// moduleRunner drives one loaded module instance.
type moduleRunner struct {
	mod   Module
	subs  []string
	span  string // request span's Link for this module: "local:<name>"
	inbox *Mailbox[*wire.Message]
	h     *Handle
	done  chan struct{}
}

// LoadModule loads a comms module into the broker, giving it a Handle
// for outbound operations. The paper's "module loaded at a configurable
// tree depth" policy is realized by the session choosing which ranks to
// call LoadModule on.
func (b *Broker) LoadModule(m Module) error {
	r := &moduleRunner{
		mod:   m,
		subs:  m.Subscriptions(),
		span:  "local:" + m.Name(),
		inbox: NewMailbox[*wire.Message](),
		done:  make(chan struct{}),
	}
	r.h = b.NewHandle()
	if err := m.Init(r.h); err != nil {
		r.h.Close()
		r.inbox.CloseNow()
		return err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		r.h.Close()
		r.inbox.CloseNow()
		return errShutdown
	}
	b.modules[m.Name()] = r
	b.publishModulesLocked()
	b.mu.Unlock()
	go r.run()
	return nil
}

// UnloadModule stops and removes a loaded comms module. Already-queued
// requests drain through the module first (with a grace period);
// subsequent requests for the service route upstream (or fail at the
// root). Together with LoadModule this enables live software upgrades of
// a service, one of the paper's system requirements: unload the old
// instance, load the new one, while the broker and its other services
// keep running.
func (b *Broker) UnloadModule(name string) error {
	b.mu.Lock()
	r, ok := b.modules[name]
	if ok {
		delete(b.modules, name)
		b.publishModulesLocked()
	}
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("broker: no module %q loaded", name)
	}
	// Graceful first: the registry entry is gone so nothing new arrives;
	// let the module answer what is already queued, then shut down. If it
	// wedges (e.g. parked in an RPC that will never complete), fail its
	// handle to force the drain.
	r.inbox.Close()
	select {
	case <-r.done:
	case <-time.After(2 * time.Second):
		r.h.Close()
		<-r.done
	}
	return nil
}

// HasModule reports whether a module with the given service name is
// loaded at this broker.
func (b *Broker) HasModule(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.modules[name]
	return ok
}

func (r *moduleRunner) run() {
	defer close(r.done)
	idler, _ := r.mod.(IdleBatcher)
	out := r.inbox.Out()
	for m := range out {
		r.mod.Recv(m)
	inner:
		for {
			select {
			case m2, ok := <-out:
				if !ok {
					break inner
				}
				r.mod.Recv(m2)
			default:
				break inner
			}
		}
		if idler != nil {
			idler.Idle()
		}
	}
	r.mod.Shutdown()
	r.h.Close()
}

// stop closes the module's inbox (pending messages are discarded) and
// waits for Recv to finish.
func (r *moduleRunner) stop() {
	r.inbox.CloseNow()
	// The module may be blocked in Recv on an RPC; its handle is failed
	// by broker shutdown which unblocks it.
	<-r.done
}
