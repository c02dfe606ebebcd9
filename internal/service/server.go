package service

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
)

// Opener is the server's backend: it turns an accepted OPEN into a batch
// stream. The root package adapts a multi-tenant Cluster into an Opener —
// admission control, fair-share weights, and the materialized cache all
// live behind this seam. OpenStream returns the typed errors of this
// package (wrapped is fine) to select the rejection code sent on the
// wire; any other error maps to CodeError.
type Opener interface {
	OpenStream(spec StreamSpec, weight float64) (Stream, error)
}

// Stream is one opened batch source: Next produces batches in order
// (io.EOF after Total), Close tears the backend down. A stream is driven
// by exactly one server pump task.
type Stream interface {
	Next(ctx context.Context) (*data.Batch, error)
	Total() int
	Close()
}

// TokenQuota is one auth token's entitlement.
type TokenQuota struct {
	// MaxStreams caps the token's concurrent streams (0 = unlimited).
	MaxStreams int
	// Weight is the fair-share priority the token's streams carry into the
	// cluster's worker arbitration (0 = 1).
	Weight float64
}

// ServerConfig shapes a server's multi-tenant front end.
type ServerConfig struct {
	// Tokens is the auth table: nil means an open server (any token,
	// including empty, is accepted at weight 1); non-nil rejects unknown
	// tokens with CodeUnauthorized and enforces per-token quotas with
	// CodeQuotaExceeded.
	Tokens map[string]TokenQuota
	// SendWindow bounds batches granted-but-undelivered per stream; a
	// client REQ beyond it is a protocol violation and kills the stream
	// with CodeOverloaded. Default 8.
	SendWindow int
	// MaxStreams caps concurrent streams server-wide; beyond it OPENs are
	// rejected with CodeOverloaded (clients retry with backoff).
	// 0 = unlimited.
	MaxStreams int
}

// Server is one preprocessing server: a dispatch task draining its
// endpoint's inbox, plus one pump task per open stream.
type Server struct {
	net    *Net
	rt     *simtime.Virtual
	ep     int
	cfg    ServerConfig
	opener Opener
	wg     *simtime.WaitGroup
	inbox  *queue.Queue[Frame]

	// Plain state of the server's tasks, like everything on their kernel.
	closed    bool
	streams   map[uint64]*srvStream
	opens     map[int]uint64 // per-client stream counter (id allocation)
	tokenLoad map[string]int
	stats     Stats // the counters; MaxPending covers retired streams only
}

// Task and queue names of the per-stream and per-endpoint parts, the same
// for every stream: a deadlock report tells parked tasks apart by the park
// site it prints for each.
const (
	pumpTaskName    = "svc-pump"
	grantsQueueName = "svc-grants"
	inboxQueueName  = "svc-inbox"
)

// srvStream is the server half of one open stream: the part every stream
// sets anew, then the storage a recycled one keeps (see streamStock) — its
// pump task's body, built once per srvStream, and its rings.
type srvStream struct {
	streamState
	body   func()
	grants queue.Queue[int]
	// seqs holds, per sequence, whether it is granted — requested by the
	// client and not yet answered (by a batch, a cancel, or teardown) — and
	// whether it is cancelled with its grant still queued. The client keeps
	// at most a window of sequences in flight, so a window-sized ring holds
	// them. debt counts the granted ones: the stream's live window debt; a
	// REQ arriving while debt is at the window is a protocol violation. A
	// CANCEL moves its sequence from granted to cancelled immediately —
	// mirroring the client, which restores its send credit the moment it
	// cancels the hedge loser — even though the grant stays queued until
	// the pump drains and skips it.
	seqs seqRing[grantState]
}

// streamState is what opening a stream sets and recycling it clears (debt
// is described at srvStream.seqs).
type streamState struct {
	srv    *Server
	id     uint64
	client int
	token  string
	src    Stream
	window int

	debt     int
	maxPend  int
	closing  bool
	killCode Code

	produced int // pump-owned: next sequence the source will yield
}

type grantState struct{ granted, cancelled bool }

// NewServer attaches a server to endpoint ep of n (the endpoint must have
// been allocated by n.AllocEndpoint).
func NewServer(n *Net, ep int, cfg ServerConfig, opener Opener) *Server {
	if cfg.SendWindow <= 0 {
		cfg.SendWindow = 8
	}
	return &Server{
		net:       n,
		rt:        n.Runtime(),
		ep:        ep,
		cfg:       cfg,
		opener:    opener,
		wg:        simtime.NewWaitGroup(n.Runtime()),
		inbox:     n.Inbox(ep),
		streams:   make(map[uint64]*srvStream),
		opens:     make(map[int]uint64),
		tokenLoad: make(map[string]int),
	}
}

// Start launches the dispatch task; call it from a task of the server's
// kernel. Server tasks are kernel daemons: they park indefinitely waiting
// for client frames without counting as deadlocked once every client task
// has exited.
func (s *Server) Start() {
	s.wg.Add(1)
	s.rt.GoDaemon(fmt.Sprintf("svc-server-%d", s.ep), func() {
		defer s.wg.Done()
		s.dispatch()
	})
}

// Endpoint returns the server's fabric endpoint.
func (s *Server) Endpoint() int { return s.ep }

// dispatch drains the inbox, serializing control-plane work (opens,
// grants, cancels, closes). Reply sends block the dispatch task for their
// transfer time — the modeled cost of the server's control plane.
func (s *Server) dispatch() {
	ctx := context.Background()
	for {
		fr, err := s.inbox.Get(ctx)
		if err != nil {
			return // inbox closed: server shut down
		}
		if s.closed {
			continue // drain silently during shutdown
		}
		switch fr.Op {
		case OpOpen:
			s.handleOpen(ctx, fr)
		case OpReq:
			s.handleReq(ctx, fr)
		case OpCancel:
			s.handleCancel(fr)
		case OpClose:
			s.handleClose(fr)
		}
	}
}

func (s *Server) reply(ctx context.Context, to int, fr Frame) {
	fr.Op, fr.From = OpOpenReply, s.ep
	_ = s.net.Send(ctx, to, fr)
}

// handleOpen runs the admission path: auth token → token quota →
// server-wide capacity → backend open.
func (s *Server) handleOpen(ctx context.Context, fr Frame) {
	spec := fr.Spec
	weight := 1.0
	if s.cfg.Tokens != nil {
		q, ok := s.cfg.Tokens[spec.Token]
		if !ok {
			s.stats.RejectedUnauthorized++
			s.reply(ctx, fr.From, Frame{Code: CodeUnauthorized})
			return
		}
		if q.Weight > 0 {
			weight = q.Weight
		}
		if q.MaxStreams > 0 {
			if s.tokenLoad[spec.Token] >= q.MaxStreams {
				s.stats.RejectedQuota++
				s.reply(ctx, fr.From, Frame{Code: CodeQuotaExceeded})
				return
			}
		}
	}
	if s.cfg.MaxStreams > 0 {
		if len(s.streams) >= s.cfg.MaxStreams {
			s.stats.RejectedOverloaded++
			s.reply(ctx, fr.From, Frame{Code: CodeOverloaded})
			return
		}
	}

	src, err := s.opener.OpenStream(spec, weight)
	if err != nil {
		code := CodeError
		switch {
		case errors.Is(err, ErrUnknownStream):
			s.stats.RejectedUnknown++
			code = CodeUnknownStream
		case errors.Is(err, ErrServerOverloaded):
			s.stats.RejectedOverloaded++
			code = CodeOverloaded
		case errors.Is(err, ErrQuotaExceeded):
			s.stats.RejectedQuota++
			code = CodeQuotaExceeded
		case errors.Is(err, ErrUnauthorized):
			s.stats.RejectedUnauthorized++
			code = CodeUnauthorized
		}
		s.reply(ctx, fr.From, Frame{Code: code})
		return
	}

	window := s.cfg.SendWindow
	if spec.Window > 0 && spec.Window < window {
		window = spec.Window
	}
	// The grant queue must absorb every sequence the stream can ever carry:
	// cancelled grants stay queued until the pump drains them, so live
	// window debt (≤ window) plus cancelled residue can exceed the window —
	// and a blocking Put here would stall the dispatch task for every
	// client.
	depth := window + src.Total()
	if depth < 1 {
		depth = 1
	}
	s.opens[fr.From]++
	id := uint64(fr.From)<<16 | (s.opens[fr.From] & 0xffff)
	st, ok := streamStock.Get()
	if !ok {
		st = new(srvStream)
		st.body = st.serve
	}
	st.streamState = streamState{srv: s, id: id, client: fr.From, token: spec.Token, src: src, window: window}
	st.grants.Init(s.rt, grantsQueueName, depth)
	st.seqs.init(window)
	s.streams[id] = st
	s.tokenLoad[spec.Token]++
	s.stats.StreamsTotal++

	s.reply(ctx, fr.From, Frame{Stream: id, Code: CodeOK, Window: window, Total: src.Total()})
	s.wg.Add(1)
	s.rt.GoDaemon(pumpTaskName, st.body)
}

// streamStock holds ended streams, with their rings and pump bodies, for
// the opens of any server to draw from.
var streamStock = simtime.NewStock[*srvStream](512)

// serve is a stream's pump task. Once the pump has returned, nothing reaches
// the stream — it left the server's table in deregister — so the task
// empties it, keeping its rings and pump body, and hands it to streamStock.
func (st *srvStream) serve() {
	s := st.srv
	defer s.wg.Done()
	s.pump(st)
	st.streamState = streamState{}
	streamStock.Put(st)
}

// handleReq grants one batch request, enforcing the send window: a REQ
// that would exceed it is a protocol violation and kills the stream.
func (s *Server) handleReq(ctx context.Context, fr Frame) {
	st := s.streams[fr.Stream]
	if st == nil {
		_ = s.net.Send(ctx, fr.From, Frame{Op: OpEnd, From: s.ep, Stream: fr.Stream, Code: CodeUnknownStream})
		return
	}
	if st.closing {
		return
	}
	if st.debt >= st.window {
		st.closing = true
		st.killCode = CodeOverloaded
		st.grants.Close()
		return
	}
	if g := st.seqs.add(fr.Seq); !g.granted {
		g.granted = true
		st.debt++
	}
	st.maxPend = max(st.maxPend, st.debt)
	// Capacity covers the whole stream, so this never blocks.
	_ = st.grants.Put(ctx, fr.Seq)
}

// handleCancel withdraws a grant: the sequence leaves the window debt
// immediately (the client has already restored its credit) and the pump
// skips it when the queue drains. If the pump already answered the
// sequence the cancel is a no-op — the batch is in flight and the client
// releases the duplicate.
func (s *Server) handleCancel(fr Frame) {
	st := s.streams[fr.Stream]
	if st == nil {
		return
	}
	if st.ungrant(fr.Seq) {
		st.seqs.add(fr.Seq).cancelled = true
	}
}

// handleClose starts stream teardown; the pump drains and sends the END.
func (s *Server) handleClose(fr Frame) {
	st := s.streams[fr.Stream]
	if st == nil {
		return // already ended (e.g. EOF raced the close) — END was sent
	}
	st.closing = true
	st.grants.Close()
}

// release settles a sequence's window debt after the pump answers it (or
// abandons it). A cancel that raced mid-production already settled it; the
// second settle is a no-op.
func (st *srvStream) release(seq int) {
	st.ungrant(seq)
	st.uncancel(seq)
}

// ungrant withdraws seq's grant, reporting whether it had one.
func (st *srvStream) ungrant(seq int) bool {
	g := st.seqs.find(seq)
	if g == nil || !g.granted {
		return false
	}
	g.granted = false
	st.debt--
	if !g.cancelled {
		st.seqs.drop(seq)
	}
	return true
}

// uncancel clears seq's cancel, reporting whether it had one.
func (st *srvStream) uncancel(seq int) bool {
	g := st.seqs.find(seq)
	if g == nil || !g.cancelled {
		return false
	}
	g.cancelled = false
	if !g.granted {
		st.seqs.drop(seq)
	}
	return true
}

// pump serves one stream: take a grant, produce the batch (fast-forwarding
// the in-order source past hedge-cancelled sequences), send it. On exit it
// tears the backend stream down, deregisters, and only then sends the
// stream's single END frame — a client that has seen END knows every
// server-side resource of the stream is gone.
func (s *Server) pump(st *srvStream) {
	ctx := context.Background()
	code := CodeEOF
	for {
		seq, err := st.grants.Get(ctx)
		if err != nil {
			if st.killCode != 0 {
				code = st.killCode
			} else {
				code = CodeOK // acknowledged close
			}
			break
		}
		if st.closing {
			// Drained after close: the grant is abandoned.
			st.ungrant(seq)
			continue
		}
		if st.uncancel(seq) {
			// The cancel already settled the window debt.
			s.stats.CancelsHonored++
			continue
		}
		stale := seq < st.produced
		if stale {
			st.release(seq)
			continue
		}
		var b *data.Batch
		var perr error
		for st.produced <= seq {
			nb, err := st.src.Next(ctx)
			if err != nil {
				perr = err
				break
			}
			if st.produced < seq {
				// A hedge loser's sequence: the in-order source must still
				// advance past it, but nobody wants the batch.
				nb.Release()
				s.stats.FastForwards++
			} else {
				b = nb
			}
			st.produced++
		}
		if perr != nil {
			st.release(seq)
			if errors.Is(perr, io.EOF) {
				code = CodeEOF
			} else {
				code = CodeError
			}
			break
		}
		payload := BatchWireBytes(b)
		fr := Frame{Op: OpBatch, From: s.ep, Stream: st.id, Seq: seq, Batch: b, Bytes: payload}
		if err := s.net.Send(ctx, st.client, fr); err != nil { // Send released b
			st.release(seq)
			code = CodeError
			break
		}
		s.stats.BatchesSent++
		s.stats.BytesSent += payload + frameHeaderBytes
		st.release(seq)
	}

	st.src.Close()
	s.deregister(st)
	_ = s.net.Send(ctx, st.client, Frame{Op: OpEnd, From: s.ep, Stream: st.id, Seq: st.produced, Code: code})
}

func (s *Server) deregister(st *srvStream) {
	st.grants.Close()
	delete(s.streams, st.id)
	s.tokenLoad[st.token]--
	s.stats.MaxPending = max(s.stats.MaxPending, st.maxPend)
}

// Close shuts the server down: the inbox closes (dispatch exits after
// draining), every live stream is torn down (pumps send their ENDs), and
// Close blocks until all server tasks finish. Then the server's endpoint
// hangs up (Net.Hangup). Clients should close first — a final END to a
// client that never drains its inbox can park a pump until the inbox has
// space.
func (s *Server) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	streams := make([]*srvStream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	for _, st := range streams {
		st.closing = true
		st.grants.Close()
	}
	s.inbox.Close()
	err := s.wg.Wait(context.Background())
	s.net.Hangup(s.ep)
	return err
}

// Stats is a snapshot of the server's front end.
type Stats struct {
	// StreamsTotal counts accepted streams over the server's lifetime;
	// StreamsActive the currently open ones.
	StreamsTotal  int64
	StreamsActive int
	// The rejection counters, by typed cause.
	RejectedUnauthorized int64
	RejectedQuota        int64
	RejectedOverloaded   int64
	RejectedUnknown      int64
	// BatchesSent and BytesSent count deliveries (bytes include frame
	// overhead).
	BatchesSent int64
	BytesSent   int64
	// MaxPending is the high-water of any stream's granted-but-undelivered
	// count — never above the configured send window.
	MaxPending int
	// CancelsHonored counts hedge cancellations that withdrew a grant
	// before its batch was produced; FastForwards counts batches produced
	// and discarded to advance an in-order source past a lost sequence.
	CancelsHonored int64
	FastForwards   int64
}

// Stats returns a live snapshot; like the rest of the server, on its kernel.
func (s *Server) Stats() Stats {
	st := s.stats
	st.StreamsActive = len(s.streams)
	for _, live := range s.streams {
		st.MaxPending = max(st.MaxPending, live.maxPend)
	}
	return st
}
