package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/flow"
	"repro/internal/par"
)

// Options configures a Server. The zero value serves with the defaults
// noted on each field.
type Options struct {
	// MaxSessions caps concurrently admitted units of heavy work — open
	// sessions plus in-flight PPAC evaluations. An OPEN or PPAC beyond
	// the cap is refused gracefully with CodeBusy (the client may retry)
	// rather than queued. Default 64.
	MaxSessions int
	// Workers is the total intra-flow worker budget, split across
	// admitted sessions with par.Budget so concurrent flows do not
	// oversubscribe the machine. Default GOMAXPROCS.
	Workers int
	// MaxFrame caps a received frame's payload. Default DefaultMaxFrame.
	MaxFrame int
	// CacheDir holds the server's design-database snapshots (first OPEN
	// of a design/config/boundary runs the flow and saves; the next
	// identical OPEN restores the file once into a timed baseline that
	// every identical OPEN forks). Empty means a private temp dir,
	// removed on Shutdown.
	CacheDir string
	// Logf, when set, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

// Server is the flowd daemon core: it owns the admission limiter, the
// design/fmax/snapshot caches, and one reader+worker goroutine pair per
// accepted connection.
type Server struct {
	opt Options

	ctx    context.Context
	cancel context.CancelFunc
	admit  *par.Limiter
	wg     sync.WaitGroup

	sessionSeq atomic.Uint64

	mu       sync.Mutex
	lis      net.Listener
	draining bool
	cacheDir string
	ownCache bool
	designs  map[string]*designEntry
	fmaxes   map[string]*fmaxEntry
	snaps    map[string]*snapEntry
}

// New returns an idle Server; call Serve with a listener to start
// accepting.
func New(opt Options) *Server {
	if opt.MaxSessions <= 0 {
		opt.MaxSessions = 64
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.MaxFrame <= 0 {
		opt.MaxFrame = DefaultMaxFrame
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opt:      opt,
		ctx:      ctx,
		cancel:   cancel,
		admit:    par.NewLimiter(opt.MaxSessions),
		cacheDir: opt.CacheDir,
		designs:  make(map[string]*designEntry),
		fmaxes:   make(map[string]*fmaxEntry),
		snaps:    make(map[string]*snapEntry),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// ActiveSessions returns the number of admitted heavy-work units
// currently in flight (open sessions + running PPAC evaluations).
func (s *Server) ActiveSessions() int { return s.admit.Active() }

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ensureCacheDir lazily creates the snapshot cache directory.
func (s *Server) ensureCacheDir() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheDirLocked()
}

// Serve accepts connections on lis until Shutdown. It returns nil after
// an orderly shutdown and the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return ErrShutdown
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		nc, err := lis.Accept()
		if err != nil {
			if s.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.wg.Add(1)
		go s.handleConn(nc)
	}
}

// Shutdown drains the server: stop accepting, cancel every in-flight
// request (their flows abort at the next stage boundary), send each
// live connection a BYEE shutdown record, and wait — bounded by ctx —
// for all connection goroutines to exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.cancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
	s.mu.Lock()
	dir, own := s.cacheDir, s.ownCache
	s.cacheDir, s.ownCache = "", false
	s.mu.Unlock()
	if own && dir != "" {
		os.RemoveAll(dir)
	}
	return nil
}

// frame is one request in flight from the read loop to the worker. A
// non-nil err is the read loop's poison pill: the stream is unframeable
// and the worker must report it and hang up.
type frame struct {
	tag     string
	payload []byte
	err     error
}

// serverConn is one accepted connection: a read loop feeding a request
// queue and a worker draining it. All frame writes happen on the worker
// goroutine (events included — flows run inside the worker's request
// handling), serialized by wmu for safety against future callers.
type serverConn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	// ctx is the connection's lifetime; cancelled by server shutdown,
	// peer disconnect, or worker exit.
	ctx    context.Context
	cancel context.CancelFunc

	reqs chan frame

	wmu      sync.Mutex
	sink     *wireSink
	sess     *session
	holdSlot bool // this conn holds an admit slot (open session)

	// opMu guards opCancel, the in-flight request's cancel hook the
	// read loop fires on an out-of-band CNCL frame.
	opMu     sync.Mutex
	opCancel context.CancelFunc
}

func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(s.ctx)
	c := &serverConn{
		srv:    s,
		nc:     nc,
		br:     bufio.NewReader(nc),
		ctx:    ctx,
		cancel: cancel,
		reqs:   make(chan frame, 16),
	}
	c.sink = &wireSink{emit: func(ev *Event) { c.writeFrame(TagEvent, ev.encode()) }}
	defer cancel()

	// Handshake: both sides write first, read second.
	if err := writeHandshake(nc); err != nil {
		nc.Close()
		return
	}
	if err := readHandshake(c.br); err != nil {
		c.writeFrame(TagError, encodeError(codeOf(err), err.Error()))
		nc.Close()
		return
	}

	s.wg.Add(1)
	go c.readLoop()
	c.workLoop()
}

// readLoop turns the byte stream into queued requests. It owns nothing
// but the reader: cancellation (CNCL) is applied in-band here so it can
// overtake the request it targets, and any framing failure is forwarded
// as a poison frame for the worker to report.
func (c *serverConn) readLoop() {
	defer c.srv.wg.Done()
	// Unblock the worker when the peer goes away, and the queue-send
	// below when the worker goes away. A queued poison frame leaves the
	// teardown to the worker, so the requests ahead of it and its typed
	// error are answered first.
	poisoned := false
	defer func() {
		if !poisoned {
			c.cancel()
		}
	}()
	defer close(c.reqs)
	for {
		tag, payload, err := db.ReadFrame(c.br, c.srv.opt.MaxFrame)
		if err != nil {
			// Clean EOF (or a transport error once the conn is dead) just
			// ends the loop; a framing-level failure is reported first.
			if errors.Is(err, db.ErrCorrupt) || errors.Is(err, db.ErrVersion) {
				if c.ctx.Err() != nil {
					return // teardown races a half-read frame; stay quiet
				}
				select {
				case c.reqs <- frame{err: err}:
					poisoned = true
				case <-c.ctx.Done():
				}
			}
			return
		}
		if tag == TagCancel {
			c.cancelOp()
			continue
		}
		select {
		case c.reqs <- frame{tag: tag, payload: payload}:
		case <-c.ctx.Done():
			return
		}
	}
}

// workLoop answers queued requests strictly in order, one at a time.
func (c *serverConn) workLoop() {
	defer func() {
		c.sink.close()
		c.cancel()
		c.nc.Close()
		if c.sess != nil {
			st := c.sess.timer.Stats()
			c.srv.logf("serve: session-%d closed: %d full and %d incremental timing updates, %d nodes re-evaluated, %d required-time settles over %d nodes",
				c.sess.id, st.FullUpdates, st.IncrementalUpdates, st.NodesReevaluated, st.RequiredSweeps, st.RequiredNodes)
		}
		c.sess = nil
		if c.holdSlot {
			c.srv.admit.Release()
			c.holdSlot = false
		}
	}()
	for {
		select {
		case <-c.ctx.Done():
			if c.srv.isDraining() {
				// The protocol-level shutdown record: in-flight sessions
				// learn the server is going away, not just that the pipe
				// broke.
				c.writeFrame(TagBye, encodeBye("shutdown"))
			}
			return
		case fr, ok := <-c.reqs:
			if !ok {
				return // peer disconnected
			}
			if fr.err != nil {
				c.writeFrame(TagError, encodeError(codeOf(fr.err), fr.err.Error()))
				c.writeFrame(TagBye, encodeBye("protocol error"))
				return
			}
			if c.handle(fr) {
				return
			}
		}
	}
}

// handle answers one request; the return value reports whether the
// connection should close (an orderly CLOS).
func (c *serverConn) handle(fr frame) (closeConn bool) {
	switch fr.tag {
	case TagPing:
		c.writeFrame(TagPong, nil)
		return false
	case TagClose:
		c.writeFrame(TagBye, encodeBye("close"))
		return true
	case TagOpen, TagMutate, TagTiming, TagPPAC:
	default:
		c.respondErr(fmt.Errorf("%w: unknown request tag %q", ErrBadRequest, fr.tag))
		return false
	}

	// Heavy requests run under a per-request context so an out-of-band
	// CNCL (or peer disconnect, or server shutdown — both cancel c.ctx)
	// aborts them at the pipeline's existing cancellation points. The
	// panic shield keeps a handler bug from killing the daemon: it
	// surfaces as a CodeInternal response instead.
	opCtx, opCancel := context.WithCancel(c.ctx)
	c.setOpCancel(opCancel)
	err := flow.Shield("serve", c.label(), fr.tag, func() error {
		switch fr.tag {
		case TagOpen:
			return c.handleOpen(opCtx, fr.payload)
		case TagMutate:
			return c.handleMutate(fr.payload)
		case TagTiming:
			return c.handleTiming(fr.payload)
		default:
			return c.handlePPAC(opCtx, fr.payload)
		}
	})
	c.setOpCancel(nil)
	opCancel()
	if err != nil {
		// During a drain the pipeline reports context cancellation; tell
		// the client the real reason.
		if c.srv.isDraining() && codeOf(err) == CodeCancelled {
			err = fmt.Errorf("%w: %v", ErrShutdown, err)
		}
		c.respondErr(err)
	}
	return false
}

func (c *serverConn) label() string {
	if c.sess != nil {
		return fmt.Sprintf("session-%d", c.sess.id)
	}
	return "idle"
}

func (c *serverConn) setOpCancel(fn context.CancelFunc) {
	c.opMu.Lock()
	c.opCancel = fn
	c.opMu.Unlock()
}

// cancelOp fires the in-flight request's cancel hook (read-loop side of
// CNCL). A CNCL with nothing in flight is a no-op by design: the race
// between a response and a late cancel is unavoidable, so cancellation
// is best-effort and the client must treat a success response as final.
func (c *serverConn) cancelOp() {
	c.opMu.Lock()
	fn := c.opCancel
	c.opMu.Unlock()
	if fn != nil {
		fn()
	}
}

// writeFrame sends one frame; transport errors cancel the connection
// (the peer is gone) rather than propagate — every caller's next step
// is teardown anyway.
func (c *serverConn) writeFrame(tag string, payload []byte) {
	c.wmu.Lock()
	err := db.WriteFrame(c.nc, tag, payload)
	c.wmu.Unlock()
	if err != nil {
		c.cancel()
	}
}

func (c *serverConn) respondErr(err error) {
	code := codeOf(err)
	if code == CodeInternal {
		c.srv.logf("serve: %s: internal error: %v", c.label(), err)
	}
	c.writeFrame(TagError, encodeError(code, err.Error()))
}
