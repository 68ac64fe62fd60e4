// Package transport is the live (non-simulated) runtime: processes run as
// goroutines exchanging messages over an in-memory switch or a real TCP
// hub — the deployment mode the paper targets, where liblog-style recording
// happens in production and diagnosis happens offline (paper §2.2, §3.1).
// The processes themselves, their scrolls and their offline replay are
// substrate.LiveSubstrate's and dsim.Replay's; this package moves messages.
package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/vclock"
)

// Message is one transported datagram. ID, when set, is the scroll
// message identity — it lets a receiver's recv record reference the
// sender's send record, which recovery-line analysis depends on.
type Message struct {
	ID      string    `json:"id,omitempty"`
	From    string    `json:"from"`
	To      string    `json:"to"`
	Payload []byte    `json:"payload"`
	Lamport uint64    `json:"lamport"`
	Clock   vclock.VC `json:"clock,omitzero"` // sender's vector time, for recovery-line analysis
	// Epoch is the sender's timeline epoch. A rollback (checkpoint restore,
	// heal, dynamic update) advances the runtime's epoch, so receivers can
	// fence messages sent on an abandoned timeline — in-flight frames that a
	// real network cannot recall. Zero until the first rollback, so frames
	// from rollback-free runs are byte-identical to the pre-epoch format.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Transport delivers messages between named endpoints.
type Transport interface {
	// Register creates the inbox for an endpoint.
	Register(id string) (<-chan Message, error)
	// Send routes a message to its destination's inbox.
	Send(msg Message) error
	// Close shuts the transport down; inboxes are closed.
	Close() error
}

// --- In-memory switch ---

// Switch is an in-memory Transport backed by buffered channels.
type Switch struct {
	mu     sync.Mutex
	boxes  map[string]chan Message
	closed bool
}

// NewSwitch returns an empty in-memory transport.
func NewSwitch() *Switch { return &Switch{boxes: make(map[string]chan Message)} }

// Register implements Transport.
func (s *Switch) Register(id string) (<-chan Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("transport: switch closed")
	}
	if _, dup := s.boxes[id]; dup {
		return nil, fmt.Errorf("transport: duplicate endpoint %q", id)
	}
	ch := make(chan Message, 1024)
	s.boxes[id] = ch
	return ch, nil
}

// Send implements Transport. The channel send happens under the switch
// mutex so Close (which closes every inbox) can never race it into a
// send-on-closed-channel panic; inbox consumers drain without taking the
// mutex, so a full inbox exerts backpressure rather than deadlocking.
func (s *Switch) Send(msg Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("transport: switch closed")
	}
	ch, ok := s.boxes[msg.To]
	if !ok {
		return fmt.Errorf("transport: unknown endpoint %q", msg.To)
	}
	ch <- msg
	return nil
}

// Close implements Transport.
func (s *Switch) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, ch := range s.boxes {
		close(ch)
	}
	return nil
}

// --- TCP hub ---

// Hub is a TCP message router: every node dials the hub, identifies
// itself, and exchanges length-prefixed JSON frames. It provides real
// network nondeterminism (goroutine scheduling + TCP timing) for the
// record/replay demonstration.
type Hub struct {
	ln     net.Listener
	mu     sync.Mutex
	conns  map[string]net.Conn
	closed bool
	wg     sync.WaitGroup
}

// NewHub starts a hub on addr (e.g. "127.0.0.1:0").
func NewHub(addr string) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: hub listen: %w", err)
	}
	h := &Hub{ln: ln, conns: make(map[string]net.Conn)}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.wg.Add(1)
		go h.serve(conn)
	}
}

// serve reads the registration frame, then routes every subsequent frame.
func (h *Hub) serve(conn net.Conn) {
	defer h.wg.Done()
	r := bufio.NewReader(conn)
	var hello Message
	if err := readFrame(r, &hello); err != nil {
		conn.Close()
		return
	}
	id := hello.From
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	h.conns[id] = conn
	h.mu.Unlock()
	// Ack the registration so the node knows it is routable before its
	// peers start sending (otherwise early messages race the hello frame
	// and are dropped).
	writeFrame(conn, &Message{To: id})
	for {
		var msg Message
		if err := readFrame(r, &msg); err != nil {
			return
		}
		h.mu.Lock()
		dst, ok := h.conns[msg.To]
		h.mu.Unlock()
		if ok {
			writeFrame(dst, &msg) // best effort; receiver failure drops
		}
	}
}

// Close stops the hub and closes all connections.
func (h *Hub) Close() error {
	h.mu.Lock()
	h.closed = true
	for _, c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()
	err := h.ln.Close()
	h.wg.Wait()
	return err
}

// frame layout: uint32 length | JSON.
func writeFrame(w io.Writer, msg *Message) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func readFrame(r io.Reader, msg *Message) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, msg)
}

// TCPTransport is the node-side Transport over a Hub.
type TCPTransport struct {
	addr      string
	mu        sync.Mutex
	done      []func()
	endpoints []*tcpEndpoint
}

// NewTCPTransport returns a Transport that dials the hub at addr.
func NewTCPTransport(addr string) *TCPTransport { return &TCPTransport{addr: addr} }

// tcpEndpoint is one node's connection.
type tcpEndpoint struct {
	conn net.Conn
	mu   sync.Mutex
}

// Register implements Transport: dials the hub, sends the hello frame, and
// pumps incoming frames into the returned channel.
func (t *TCPTransport) Register(id string) (<-chan Message, error) {
	conn, err := net.Dial("tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial hub: %w", err)
	}
	if err := writeFrame(conn, &Message{From: id}); err != nil {
		conn.Close()
		return nil, err
	}
	// Wait for the hub's registration ack; from here on the endpoint is
	// routable. Read unbuffered so no bytes are stolen from the pump
	// goroutine's reader.
	var ack Message
	if err := readFrame(conn, &ack); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: registration ack: %w", err)
	}
	ch := make(chan Message, 1024)
	ep := &tcpEndpoint{conn: conn}
	t.mu.Lock()
	t.done = append(t.done, func() { conn.Close() })
	t.endpoints = append(t.endpoints, ep)
	t.mu.Unlock()
	go func() {
		defer close(ch)
		r := bufio.NewReader(conn)
		for {
			var msg Message
			if err := readFrame(r, &msg); err != nil {
				return
			}
			ch <- msg
		}
	}()
	return ch, nil
}

// Send implements Transport: frames go through this node's hub connection.
// The sender is identified by msg.From, which must be a registered id.
func (t *TCPTransport) Send(msg Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.endpoints) == 0 {
		return errors.New("transport: no endpoint registered")
	}
	ep := t.endpoints[0]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return writeFrame(ep.conn, &msg)
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.done {
		f()
	}
	t.done = nil
	return nil
}
