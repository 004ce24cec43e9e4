package broker

import "sync"

// Mailbox is an unbounded FIFO connecting producers to a single consumer
// channel. Push never blocks, which is what lets broker loops, module
// goroutines, and handles exchange messages in arbitrary topologies
// without deadlock: no component ever blocks sending to another.
type Mailbox[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	closed bool
	out    chan T
}

// NewMailbox returns a running mailbox. Its pump goroutine exits after
// Close once all queued items have been drained, and after CloseNow at
// once, whether or not anyone reads Out.
func NewMailbox[T any]() *Mailbox[T] {
	m := &Mailbox[T]{out: make(chan T)}
	m.cond = sync.NewCond(&m.mu)
	go m.pump()
	return m
}

// Push enqueues v. It reports false if the mailbox is closed.
func (m *Mailbox[T]) Push(v T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.items = append(m.items, v)
	m.cond.Signal()
	return true
}

// Out returns the consumer channel. It is closed after Close once all
// pending items have been delivered.
func (m *Mailbox[T]) Out() <-chan T { return m.out }

// Close stops accepting new items; already-queued items still drain.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// CloseNow stops accepting new items, discards anything queued and
// returns once the pump has exited. It receives (and discards) an item
// the pump may be holding, so the pump exits even if nobody reads Out.
func (m *Mailbox[T]) CloseNow() {
	m.mu.Lock()
	m.closed = true
	m.items = nil
	m.cond.Broadcast()
	m.mu.Unlock()
	for range m.out {
	}
}

// Len returns the number of queued (undelivered) items.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

func (m *Mailbox[T]) pump() {
	for {
		m.mu.Lock()
		for len(m.items) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.items) == 0 { // closed and drained
			m.mu.Unlock()
			close(m.out)
			return
		}
		v := m.items[0]
		var zero T
		m.items[0] = zero
		m.items = m.items[1:]
		m.mu.Unlock()
		m.out <- v
	}
}
