// Package service implements the disaggregated preprocessing tier: a
// batch-framed request/response protocol spoken between training clients
// and preprocessing servers over the netsim fabric, deterministically on
// the virtual clock.
//
// The wire model is deliberately simple — every message is one Frame, and
// a Frame costs its WireBytes on the sender's egress NIC and the
// receiver's ingress NIC, contending with every other flow on the fabric
// (gradient all-reduce, remote-storage reads). Determinism comes from the
// substrate: transfers complete at analytic, schedule-independent virtual
// instants, and every protocol state machine is commutative under
// same-instant frame reordering (per-stream state only, sequence-numbered
// batches, idempotent duplicate release).
//
// Protocol sketch:
//
//	client                          server
//	  OPEN(name, token, window) ─▶  auth → quota → capacity → open stream
//	  ◀─ OPEN_REPLY(id, window, total)
//	  REQ(seq) ×window ──────────▶  bounded grant queue (backpressure)
//	  ◀─ BATCH(seq) ...             one in-order pump per stream
//	  CANCEL(seq) ───────────────▶  withdraw an unsent grant (hedging)
//	  CLOSE ─────────────────────▶  teardown, then exactly one
//	  ◀─ END(code)                  END after server-side cleanup
//
// The client keeps a bounded number of REQs outstanding (its prefetch
// window, capped by the server's send window), reorders arriving batches
// by sequence number, and optionally hedges the head-of-line sequence
// against a replica server after a fixed delay — first response wins, the
// loser's grant is cancelled, and a too-late duplicate is received and
// released (never leaked).
//
// Both halves keep their per-sequence state in window rings (seqRing): a
// stream never has more than its window of sequences in flight, so a ring
// of that size, indexed by sequence, does what a map per kind of state
// did, for one allocation per stream and no growth.
package service

import (
	"context"
	"errors"
	"fmt"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/netsim"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Typed protocol errors. The root package re-exports these in its error
// taxonomy; clients receive them from Open/Recv, servers' openers return
// them to select the rejection code sent on the wire.
var (
	// ErrUnauthorized rejects an OPEN whose token the server does not
	// recognize.
	ErrUnauthorized = errors.New("minato: unauthorized")
	// ErrQuotaExceeded rejects an OPEN whose token is at its concurrent-
	// stream quota.
	ErrQuotaExceeded = errors.New("minato: tenant quota exceeded")
	// ErrServerOverloaded rejects an OPEN arriving while the server (or
	// its backing cluster) is at stream capacity, and kills streams whose
	// clients violate the granted send window. Clients retry with backoff.
	ErrServerOverloaded = errors.New("minato: server overloaded")
	// ErrUnknownStream rejects an OPEN for a name the server does not
	// publish, and REQs against stream ids the server does not know.
	ErrUnknownStream = errors.New("minato: unknown stream")
)

// Op enumerates frame types.
type Op uint8

const (
	// OpOpen asks the server to open a batch stream (Spec carries what).
	OpOpen Op = iota
	// OpOpenReply answers an OpOpen: Code, and on success the stream id,
	// granted send window, and total batch count.
	OpOpenReply
	// OpReq requests batch Seq of a stream — one REQ per batch, bounded by
	// the granted window.
	OpReq
	// OpBatch delivers batch Seq (the frame owns Batch until received).
	OpBatch
	// OpEnd is the server's final frame for a stream: end of data, a kill,
	// or the acknowledgement of an OpClose — sent exactly once, after all
	// server-side stream state is torn down.
	OpEnd
	// OpCancel withdraws an unsent grant (hedging: the other replica won).
	OpCancel
	// OpClose asks the server to tear the stream down.
	OpClose
)

// Code classifies OpOpenReply and OpEnd frames.
type Code uint8

const (
	// CodeOK accepts an open or acknowledges a close.
	CodeOK Code = iota
	// CodeEOF ends a stream that delivered its full budget.
	CodeEOF
	// CodeUnauthorized, CodeQuotaExceeded, CodeOverloaded, and
	// CodeUnknownStream carry the typed rejections.
	CodeUnauthorized
	CodeQuotaExceeded
	CodeOverloaded
	CodeUnknownStream
	// CodeError reports a server-side stream failure.
	CodeError
)

// ErrFromCode maps a rejection code to its typed error.
func ErrFromCode(c Code) error {
	switch c {
	case CodeUnauthorized:
		return ErrUnauthorized
	case CodeQuotaExceeded:
		return ErrQuotaExceeded
	case CodeOverloaded:
		return ErrServerOverloaded
	case CodeUnknownStream:
		return ErrUnknownStream
	default:
		return fmt.Errorf("minato: stream failed (code %d)", c)
	}
}

// StreamSpec is what an OPEN asks for: a published dataset × pipeline by
// name, the client's auth token, and the stream shape.
type StreamSpec struct {
	Name       string
	Token      string
	BatchSize  int
	Iterations int
	Epochs     int
	Seed       uint64
	// Window is the client's requested prefetch depth; the server grants
	// min(Window, its own send window).
	Window int
}

// frameHeaderBytes is the fixed wire cost of any frame (op, ids, seq,
// code, window/total fields).
const frameHeaderBytes = 64

// Frame is one protocol message.
type Frame struct {
	Op     Op
	From   int // sender endpoint
	Stream uint64
	Seq    int
	Code   Code
	Spec   StreamSpec // OpOpen only
	Window int        // OpOpenReply: granted send window
	Total  int        // OpOpenReply: the stream's batch budget
	// Batch is the payload of an OpBatch; the frame owns it in flight.
	Batch *data.Batch
	// Bytes is the batch payload's wire size, computed while the batch is
	// alive (Batch.Bytes panics after release).
	Bytes int64
}

// drop discards a frame nobody will receive, releasing its batch.
func (fr *Frame) drop() {
	if fr.Batch != nil {
		fr.Batch.Release()
	}
}

// WireBytes is the frame's cost on the fabric.
func (fr *Frame) WireBytes() int64 {
	n := int64(frameHeaderBytes)
	switch fr.Op {
	case OpOpen:
		n += int64(len(fr.Spec.Name) + len(fr.Spec.Token))
	case OpBatch:
		n += fr.Bytes
	}
	return n
}

// BatchWireBytes is the wire size of a batch payload: sample payload bytes
// plus a 32-byte per-sample framing record. Compute it while the batch is
// alive.
func BatchWireBytes(b *data.Batch) int64 {
	return b.Bytes() + 32*int64(b.Size())
}

// inboxDepth bounds each endpoint's receive queue, in frames.
const inboxDepth = 256

// Net is the service fabric: a netsim interconnect plus one frame inbox
// per allocated endpoint, and the fleet registry mapping server indices to
// endpoints (chaos scripts target servers by fleet index). Like the fabric
// and the queues it is made of, a Net is plain state of its kernel's tasks.
type Net struct {
	rt  *simtime.Virtual
	fab *netsim.Fabric
	cfg netsim.Config

	next    int
	eps     []endpoint // [0, next) allocated
	servers []int      // fleet index → endpoint
}

// endpoint is one party's attachment: its inbox, and whether the party hung
// up (Hangup).
type endpoint struct {
	inbox queue.Queue[Frame]
	dead  bool
}

// inboxRings holds the item rings of hung-up endpoints' inboxes, for the
// endpoints any net allocates next. An inbox ring grows only as far as the
// inbox fills (queue.InitFrom), a few frames for a client. The bound is the
// most endpoints the serve-256 benchmark workload has live at once: its 256
// clients and its server.
var inboxRings = simtime.NewStock[[]Frame](257)

// NewNet builds a service fabric on rt. Zero fields of cfg take the defaults
// documented on netsim.Config's fields.
func NewNet(rt *simtime.Virtual, cfg netsim.Config) *Net {
	if cfg.Endpoints <= 0 {
		cfg.Endpoints = 64
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = netsim.PaperBandwidth
	}
	if cfg.Latency == 0 {
		cfg.Latency = netsim.PaperLatency
	}
	return &Net{
		rt:  rt,
		fab: netsim.New(rt, cfg),
		cfg: cfg,
		eps: make([]endpoint, cfg.Endpoints),
	}
}

// Runtime returns the clock the network runs on.
func (n *Net) Runtime() *simtime.Virtual { return n.rt }

// Bandwidth returns the configured per-NIC baseline bandwidth.
func (n *Net) Bandwidth() float64 { return n.cfg.Bandwidth }

// AllocEndpoint attaches a new party to the fabric and returns its
// endpoint id, or an error when the configured endpoint budget is spent.
func (n *Net) AllocEndpoint() (int, error) {
	if n.next >= n.cfg.Endpoints {
		return 0, fmt.Errorf("service: endpoint budget %d exhausted", n.cfg.Endpoints)
	}
	ep := n.next
	n.next++
	n.eps[ep].inbox.InitFrom(inboxRings, n.rt, inboxQueueName, inboxDepth)
	return ep, nil
}

// Inbox returns the endpoint's receive queue, nil while ep is unallocated.
func (n *Net) Inbox(ep int) *queue.Queue[Frame] {
	if ep >= n.next {
		return nil
	}
	return &n.eps[ep].inbox
}

// Hangup ends endpoint ep for good: its party — a client whose streams have
// all sent END, or a server whose tasks have all exited — reads its inbox no
// more. The inbox closes, so a frame that finishes its transfer to ep later is
// dropped (Send); the frames still in it are dropped now; and its ring goes to
// inboxRings at once, for the next endpoint of any net. The fabric's flow
// records go back to their stock with the kernel's teardown
// (simtime.Virtual.Recycle). Idempotent.
func (n *Net) Hangup(ep int) {
	if ep >= n.next || n.eps[ep].dead {
		return
	}
	e := &n.eps[ep]
	e.dead = true
	e.inbox.Close()
	for {
		fr, ok, _ := e.inbox.TryGet()
		if !ok {
			break
		}
		fr.drop()
	}
	e.inbox.Recycle(inboxRings)
}

// RegisterServer records ep as the next member of the server fleet and
// returns its fleet index.
func (n *Net) RegisterServer(ep int) int {
	n.servers = append(n.servers, ep)
	return len(n.servers) - 1
}

// ServerCount returns how many servers have registered.
func (n *Net) ServerCount() int { return len(n.servers) }

// ServerEndpoint returns the endpoint of fleet member i.
func (n *Net) ServerEndpoint(i int) int { return n.servers[i] }

// SetBandwidth changes an endpoint's NIC bandwidth mid-run (chaos link
// degradation); the fabric clamps to its MinBandwidth floor.
func (n *Net) SetBandwidth(ep int, bw float64) { n.fab.SetBandwidth(ep, bw) }

// BytesMoved and FlowsCompleted expose the fabric's deterministic traffic
// totals for reports and determinism fingerprints.
func (n *Net) BytesMoved() int64     { return n.fab.BytesMoved() }
func (n *Net) FlowsCompleted() int64 { return n.fab.FlowsCompleted() }

// Send transfers fr from fr.From to dst over the fabric — blocking the
// calling task for the propagation latency plus the fair-shared transfer
// time — then delivers it into dst's inbox (blocking while the inbox is
// full: receiver backpressure reaches the sender). Must run on a tracked
// task. A frame Send cannot deliver — the transfer was cancelled, or dst's
// inbox is closed because its server shut down or its party hung up — is
// dropped, its batch released, and the error returned. On a traced kernel
// every delivered frame records a StageFrame span: wire time plus receiver
// backpressure, sender in Node, destination in Key, the frame's Op in Detail.
func (n *Net) Send(ctx context.Context, dst int, fr Frame) error {
	t0 := n.rt.Now()
	if err := n.fab.Transfer(ctx, fr.From, dst, fr.WireBytes()); err != nil {
		fr.drop()
		return err
	}
	inbox := n.Inbox(dst)
	if inbox == nil {
		fr.drop()
		return fmt.Errorf("service: send to unallocated endpoint %d", dst)
	}
	if err := inbox.Put(ctx, fr); err != nil {
		fr.drop()
		return fmt.Errorf("service: endpoint %d inbox: %w", dst, err)
	}
	n.rt.Trace().Record(trace.Span{Start: t0, End: n.rt.Now(), Stage: trace.StageFrame,
		Node: int32(fr.From), Key: int64(dst), Seq: int64(fr.Seq), Detail: int64(fr.Op)})
	return nil
}
