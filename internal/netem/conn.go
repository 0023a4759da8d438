package netem

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ptile360/internal/stats"
)

// ErrLinkDead reports that the emulated link dropped a chunk past its
// retransmission budget; the connection is unusable afterwards.
var ErrLinkDead = errors.New("netem: link dead")

// chunk is one in-order delivery unit crossing a Conn direction.
type chunk struct {
	data []byte
	due  time.Time
}

// dirState is one direction of an emulated connection: a Link plus the
// loss RNG and the in-order delivery clamp. Guarded by mu because HTTP
// stacks write from multiple goroutines over a connection's lifetime.
type dirState struct {
	mu          sync.Mutex
	link        *Link
	rng         *stats.RNG
	lastDeliver float64
	metrics     *Metrics
}

// Conn is one end of an emulated duplex connection. Bytes written on one
// end arrive on the other after the link's emulated queueing, propagation,
// loss-retransmission, and droptail-retransmission delays — in order and
// reliably, like TCP over the lossy link. The wall-clock mapping is
// emulated-seconds = elapsed-real-seconds × timeScale.
//
// Conn implements net.Conn including read deadlines, which http.Server's
// idle timeout relies on.
type Conn struct {
	name string

	// out is this end's transmit direction; in is the peer's.
	out *dirState
	ch  chan chunk // peer -> us deliveries; closed by peer's Close

	peer *Conn

	start     time.Time
	timeScale float64

	readDeadline connDeadline

	localDone chan struct{}
	closeOnce sync.Once
	broken    atomic.Bool // set when the link died mid-write

	// pending is a delivered-but-unconsumed chunk (single-reader, like
	// net.Conn's contract).
	pending *chunk
}

// Pipe returns a connected client/server pair running over two fresh links
// compiled from the profile (one per direction). seed drives both loss
// processes; timeScale ≤ 0 defaults to 1 (real time). m may be nil.
func Pipe(p *Profile, seed int64, timeScale float64, m *Metrics) (client, server net.Conn, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if timeScale <= 0 || math.IsNaN(timeScale) || math.IsInf(timeScale, 0) {
		timeScale = 1
	}
	mk := func(seed int64) (*dirState, error) {
		link, err := NewLink(p)
		if err != nil {
			return nil, err
		}
		return &dirState{link: link, rng: stats.NewRNG(seed), metrics: m}, nil
	}
	up, err := mk(seed)
	if err != nil {
		return nil, nil, err
	}
	down, err := mk(seed + 1)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	c := &Conn{name: "client", out: up, start: start, timeScale: timeScale,
		ch: make(chan chunk, 256), localDone: make(chan struct{}), readDeadline: makeConnDeadline()}
	s := &Conn{name: "server", out: down, start: start, timeScale: timeScale,
		ch: make(chan chunk, 256), localDone: make(chan struct{}), readDeadline: makeConnDeadline()}
	c.peer, s.peer = s, c
	return c, s, nil
}

// emuNow maps the wall clock into emulated seconds since the pipe opened.
func (c *Conn) emuNow() float64 {
	return time.Since(c.start).Seconds() * c.timeScale
}

// wallAt maps an emulated timestamp back to the wall clock.
func (c *Conn) wallAt(emuSec float64) time.Time {
	return c.start.Add(time.Duration(emuSec / c.timeScale * float64(time.Second)))
}

// Write sends p toward the peer through this end's emulated link. It copies
// p, computes each MTU packet's delivery time analytically (retransmitting
// through the same link on loss or droptail), and blocks only when the
// peer's delivery queue applies backpressure.
func (c *Conn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, ErrLinkDead
	}
	select {
	case <-c.localDone:
		return 0, io.ErrClosedPipe
	case <-c.peer.localDone:
		return 0, io.ErrClosedPipe
	default:
	}
	written := 0
	mtu := c.out.link.MTU()
	for written < len(p) {
		end := written + mtu
		if end > len(p) {
			end = len(p)
		}
		n := end - written
		due, err := c.out.deliver(n, c.emuNow())
		if err != nil {
			c.broken.Store(true)
			c.peer.broken.Store(true)
			return written, err
		}
		data := make([]byte, n)
		copy(data, p[written:end])
		select {
		case c.peer.ch <- chunk{data: data, due: c.wallAt(due)}:
		case <-c.localDone:
			return written, io.ErrClosedPipe
		case <-c.peer.localDone:
			return written, io.ErrClosedPipe
		}
		written = end
	}
	return written, nil
}

// deliver pushes one packet through the direction's link at emulated time
// at, retrying at +RTO on loss or droptail, and returns the emulated
// arrival time clamped to in-order delivery.
func (d *dirState) deliver(bytes int, at float64) (float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if attempt >= maxSendAttempts {
			return 0, fmt.Errorf("%w: packet dropped %d times at t=%.3f", ErrLinkDead, attempt, at)
		}
		sp := d.link.spanAt(at)
		rto := math.Max(2*sp.p.RTTSec, minRTOSec)
		if sp.p.LossProb > 0 && d.rng.Float64() < sp.p.LossProb {
			d.metrics.dropLoss()
			d.metrics.retransmit()
			at += rto
			continue
		}
		served, dropped := d.link.send(bytes, sp)
		if dropped {
			d.metrics.dropTail()
			d.metrics.retransmit()
			at += rto
			continue
		}
		if math.IsInf(served, 1) {
			return 0, fmt.Errorf("%w: service horizon exceeded at t=%.3f", ErrLinkDead, at)
		}
		d.metrics.packet(served - at)
		recv := served + sp.p.RTTSec/2
		if recv < d.lastDeliver {
			recv = d.lastDeliver
		}
		d.lastDeliver = recv
		return recv, nil
	}
}

// Read receives in-order bytes from the peer, waiting until each chunk's
// emulated arrival time has passed on the (scaled) wall clock.
func (c *Conn) Read(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, ErrLinkDead
	}
	for {
		// Local close wins over any other ready case (net.Pipe semantics).
		select {
		case <-c.localDone:
			return 0, io.ErrClosedPipe
		default:
		}
		if c.pending != nil {
			if err := c.waitUntil(c.pending.due); err != nil {
				return 0, err
			}
			n := copy(p, c.pending.data)
			if n == len(c.pending.data) {
				c.pending = nil
			} else {
				c.pending.data = c.pending.data[n:]
			}
			return n, nil
		}
		select {
		case ck, ok := <-c.ch:
			if !ok {
				return 0, io.EOF
			}
			c.pending = &ck
		case <-c.readDeadline.wait():
			return 0, os.ErrDeadlineExceeded
		case <-c.localDone:
			return 0, io.ErrClosedPipe
		case <-c.peerClosed():
			// Peer closed: drain anything already in flight, then EOF.
			select {
			case ck, ok := <-c.ch:
				if !ok {
					return 0, io.EOF
				}
				c.pending = &ck
			default:
				return 0, io.EOF
			}
		}
	}
}

// peerClosed returns the peer's done channel (closed on peer Close).
func (c *Conn) peerClosed() <-chan struct{} { return c.peer.localDone }

// waitUntil blocks until the wall clock reaches due, the read deadline
// fires, or the conn closes.
func (c *Conn) waitUntil(due time.Time) error {
	d := time.Until(due)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.readDeadline.wait():
		return os.ErrDeadlineExceeded
	case <-c.localDone:
		return io.ErrClosedPipe
	}
}

// Close shuts this end down: blocked reads and writes on both ends wake.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.localDone) })
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return netemAddr(c.name) }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return netemAddr(c.peer.name) }

// SetDeadline implements net.Conn; only the read side is enforced (writes
// never block on the emulated wire beyond backpressure).
func (c *Conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readDeadline.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn as a no-op.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

type netemAddr string

func (a netemAddr) Network() string { return "netem" }
func (a netemAddr) String() string  { return "netem:" + string(a) }

// connDeadline mirrors net.Pipe's deadline helper: wait() returns a channel
// that is closed once the deadline passes; set replaces it.
type connDeadline struct {
	mu     sync.Mutex
	timer  *time.Timer
	cancel chan struct{}
}

func makeConnDeadline() connDeadline {
	return connDeadline{cancel: make(chan struct{})}
}

func (d *connDeadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.cancel // timer fired: drain by replacing below
	}
	d.timer = nil
	closed := isClosedChan(d.cancel)
	if t.IsZero() {
		if closed {
			d.cancel = make(chan struct{})
		}
		return
	}
	dur := time.Until(t)
	if dur <= 0 {
		if !closed {
			close(d.cancel)
		}
		return
	}
	if closed {
		d.cancel = make(chan struct{})
	}
	cancel := d.cancel
	d.timer = time.AfterFunc(dur, func() {
		close(cancel)
	})
}

func (d *connDeadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Listener is an in-memory net.Listener whose accepted connections run over
// the emulated link. Dial it from an http.Transport via DialContext; each
// dialled connection forks a fresh deterministic seed.
type Listener struct {
	profile   *Profile
	timeScale float64
	metrics   *Metrics

	mu    sync.Mutex
	seed  int64
	dials int64
	acc   chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// Listen builds a listener over the profile. timeScale ≤ 0 means real time.
func Listen(p *Profile, seed int64, timeScale float64, m *Metrics) (*Listener, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Listener{
		profile:   p,
		timeScale: timeScale,
		metrics:   m,
		seed:      seed,
		acc:       make(chan net.Conn, 16),
		done:      make(chan struct{}),
	}, nil
}

// Dial opens a new emulated connection, handing the server end to Accept.
func (l *Listener) Dial() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	l.mu.Lock()
	l.dials++
	// Pipe consumes seed and seed+1; stride past both per dial.
	seed := l.seed + l.dials*2
	l.mu.Unlock()
	client, server, err := Pipe(l.profile, seed, l.timeScale, l.metrics)
	if err != nil {
		return nil, err
	}
	select {
	case l.acc <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acc:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return netemAddr("listener:" + l.profile.Name) }
