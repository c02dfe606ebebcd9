package service

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
)

// ClientConfig shapes a client's consumption of one stream.
type ClientConfig struct {
	// Window is the prefetch depth: how many REQs the client keeps
	// outstanding (capped by the server's granted send window). Default 4.
	Window int
	// HedgeDelay arms hedged requests: when the head-of-line batch has
	// been outstanding longer than this, the client opens a stream on the
	// replica server and re-requests the sequence there — first response
	// wins, the loser is cancelled. Zero disables hedging.
	HedgeDelay time.Duration
	// Retries bounds OPEN retries after CodeOverloaded rejections; Backoff
	// is the base delay, doubled per attempt (default 10ms).
	Retries int
	Backoff time.Duration
}

// remote is the client's view of one server it holds a stream on.
type remote struct {
	ep      int
	stream  uint64
	window  int
	opened  bool
	endSeen bool
	endCode Code
	// reqs holds the sequences REQed from this server and not yet answered
	// or cancelled: at most its granted window of them, so reqs.n is the
	// outstanding count.
	reqs seqRing[struct{}]
}

// pending is the client's state for one sequence between its REQ and its
// delivery: the batch once it arrived (ahead of order, or at the head),
// when the primary REQ went out, and whether a hedge is out for it.
type pending struct {
	batch     *data.Batch
	reqAt     time.Duration
	requested bool
	hedged    bool
}

// Client consumes one batch stream over the service fabric. All protocol
// methods (Recv, Close) must be driven by a single tracked task; Stats is
// safe from any goroutine.
type Client struct {
	net   *Net
	rt    *simtime.Virtual
	ep    int
	inbox *queue.Queue[Frame]
	spec  StreamSpec
	cfg   ClientConfig
	sel   simtime.Selector

	primary       remote
	replica       remote
	hasReplica    bool
	hedgeDisabled bool

	total  int
	next   int // next sequence to deliver
	issued int // primary REQ high-water
	// seqs holds the sequences in [next, issued): every one was REQed of
	// the primary, and the primary's window bounds how far issued runs
	// ahead of next, so a ring of the client's Window holds them.
	seqs    seqRing[pending]
	err     error
	started time.Duration
	lastAt  time.Duration

	mu        sync.Mutex
	delivered int
	waits     metrics.LogHist // Recv block time per delivered batch
	steps     metrics.LogHist // inter-delivery interval
	nHedges   int64
	nDups     int64
	nRetry    int64
	maxOut    int
}

// Open allocates a client endpoint on n, opens a stream on the primary
// server, and returns the connected client. replicaEP < 0 disables
// hedging; otherwise the replica stream is opened lazily at the first
// hedge. Must run on a tracked task (it blocks in virtual time for the
// handshake, including retry/backoff on ErrServerOverloaded).
func Open(ctx context.Context, n *Net, primaryEP, replicaEP int, spec StreamSpec, cfg ClientConfig) (*Client, error) {
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	ep, err := n.AllocEndpoint()
	if err != nil {
		return nil, err
	}
	spec.Window = cfg.Window
	c, ok := clientStock.Get()
	if !ok {
		c = new(Client)
	}
	c.net, c.rt, c.ep, c.inbox = n, n.Runtime(), ep, n.Inbox(ep)
	c.spec, c.cfg = spec, cfg
	c.primary.ep, c.replica.ep = primaryEP, replicaEP
	c.hasReplica = replicaEP >= 0 && cfg.HedgeDelay > 0
	c.sel.Bind(c.rt)
	c.seqs.init(cfg.Window)
	if err := c.openStream(ctx, &c.primary); err != nil {
		c.recycle()
		return nil, err
	}
	c.started = c.rt.Now()
	c.lastAt = c.started
	return c, nil
}

// clientStock holds the shells of closed clients, for the next Open on any
// net: each keeps its rings, and its histograms are the bulk of its 18.5 KiB.
// The bound is the most clients the serve-256 benchmark workload has open at
// once.
var clientStock = simtime.NewStock[*Client](256)

// recycle hangs up the client's endpoint, empties the client, keeping the
// storage of its rings, and hands it to clientStock. Nothing may reach the
// client afterwards: it is closed (Close) or was never returned, and no
// StatsView reads it.
func (c *Client) recycle() {
	c.net.Hangup(c.ep)
	// Zeroed in place, then given its rings back: a composite literal would
	// be built on the stack first, 16 KiB of histograms and all, and grow
	// the stack of every task that closes a client.
	primary, replica, seqs := c.primary.reqs, c.replica.reqs, c.seqs
	*c = Client{}
	c.primary.reqs, c.replica.reqs, c.seqs = primary, replica, seqs
	clientStock.Put(c)
}

// openStream runs the OPEN handshake against r, retrying overload
// rejections with exponential backoff.
func (c *Client) openStream(ctx context.Context, r *remote) error {
	backoff := c.cfg.Backoff
	for attempt := 0; ; attempt++ {
		if err := c.net.Send(ctx, r.ep, Frame{Op: OpOpen, From: c.ep, Spec: c.spec}); err != nil {
			return err
		}
		rep, err := c.awaitOpenReply(ctx)
		if err != nil {
			return err
		}
		switch rep.Code {
		case CodeOK:
			r.opened = true
			r.stream = rep.Stream
			r.window = rep.Window
			r.reqs.init(r.window)
			if c.total == 0 {
				c.total = rep.Total
			}
			return nil
		case CodeOverloaded:
			if attempt >= c.cfg.Retries {
				return ErrServerOverloaded
			}
			c.mu.Lock()
			c.nRetry++
			c.mu.Unlock()
			if err := c.rt.Sleep(ctx, backoff); err != nil {
				return err
			}
			backoff *= 2
		default:
			return ErrFromCode(rep.Code)
		}
	}
}

// awaitOpenReply reads frames until the OPEN_REPLY arrives, handling any
// interleaved stream traffic (a replica open happens mid-stream: primary
// batches keep arriving and must be absorbed, not dropped).
func (c *Client) awaitOpenReply(ctx context.Context) (Frame, error) {
	for {
		fr, err := c.inbox.Get(ctx)
		if err != nil {
			return Frame{}, err
		}
		if fr.Op == OpOpenReply {
			return fr, nil
		}
		c.handle(ctx, fr)
	}
}

// Endpoint returns the client's fabric endpoint.
func (c *Client) Endpoint() int { return c.ep }

// Total returns the stream's batch budget.
func (c *Client) Total() int { return c.total }

// sideOf maps a sender endpoint to the client's remote record.
func (c *Client) sideOf(ep int) *remote {
	switch {
	case c.primary.opened && ep == c.primary.ep:
		return &c.primary
	case c.replica.opened && ep == c.replica.ep:
		return &c.replica
	}
	return nil
}

func (c *Client) otherSide(ep int) *remote {
	if ep == c.primary.ep {
		if c.replica.opened {
			return &c.replica
		}
		return nil
	}
	if c.primary.opened {
		return &c.primary
	}
	return nil
}

// topUp keeps the prefetch pipeline full: REQs to the primary until the
// window is spent or the budget issued.
func (c *Client) topUp(ctx context.Context) error {
	for c.issued < c.total && c.issued < c.next+c.primary.window && c.primary.reqs.n < c.primary.window {
		seq := c.issued
		if err := c.net.Send(ctx, c.primary.ep, Frame{Op: OpReq, From: c.ep, Stream: c.primary.stream, Seq: seq}); err != nil {
			return err
		}
		c.primary.reqs.add(seq)
		c.noteOutstanding()
		p := c.seqs.add(seq)
		p.reqAt, p.requested = c.rt.Now(), true
		c.issued++
	}
	return nil
}

func (c *Client) noteOutstanding() {
	out := c.primary.reqs.n + c.replica.reqs.n
	c.mu.Lock()
	if out > c.maxOut {
		c.maxOut = out
	}
	c.mu.Unlock()
}

// canHedge reports whether the head-of-line sequence is eligible for a
// hedged request.
func (c *Client) canHedge() bool {
	if !c.hasReplica || c.hedgeDisabled {
		return false
	}
	if p := c.seqs.find(c.next); p == nil || p.hedged || !p.requested {
		return false
	}
	return !c.replica.opened || c.replica.reqs.n < c.replica.window
}

// fireHedge opens the replica stream if needed and re-requests the
// head-of-line sequence there.
func (c *Client) fireHedge(ctx context.Context) {
	seq := c.next
	c.seqs.add(seq).hedged = true
	if !c.replica.opened {
		if err := c.openStream(ctx, &c.replica); err != nil {
			// A replica that rejects the open (overloaded, unauthorized,
			// unpublished stream) disables hedging; the primary stream
			// carries on alone.
			c.hedgeDisabled = true
			return
		}
	}
	if c.replica.reqs.n >= c.replica.window {
		return
	}
	if err := c.net.Send(ctx, c.replica.ep, Frame{Op: OpReq, From: c.ep, Stream: c.replica.stream, Seq: seq}); err != nil {
		return
	}
	c.replica.reqs.add(seq)
	c.noteOutstanding()
	c.mu.Lock()
	c.nHedges++
	c.mu.Unlock()
}

// handle applies one incoming frame to the protocol state. Same-instant
// frame reorderings commute: batches are keyed by sequence, duplicates
// are released idempotently, and END is per-server state.
func (c *Client) handle(ctx context.Context, fr Frame) {
	switch fr.Op {
	case OpBatch:
		if side := c.sideOf(fr.From); side != nil {
			side.reqs.drop(fr.Seq)
		}
		var p *pending
		if fr.Seq >= c.next {
			p = c.seqs.add(fr.Seq)
		}
		if p == nil || p.batch != nil {
			// A hedge loser's (or cancelled-too-late) duplicate.
			fr.Batch.Release()
			c.mu.Lock()
			c.nDups++
			c.mu.Unlock()
			return
		}
		p.batch = fr.Batch
		if p.hedged {
			// First response wins: withdraw the loser's grant. The credit
			// comes back immediately; if the loser's batch is already in
			// flight it arrives as a duplicate and is released above.
			if loser := c.otherSide(fr.From); loser != nil && loser.reqs.drop(fr.Seq) {
				_ = c.net.Send(ctx, loser.ep, Frame{Op: OpCancel, From: c.ep, Stream: loser.stream, Seq: fr.Seq})
			}
			p.hedged = false
		}
	case OpEnd:
		side := c.sideOf(fr.From)
		if side == nil {
			return
		}
		side.endSeen = true
		side.endCode = fr.Code
		if fr.Code != CodeEOF && fr.Code != CodeOK && c.err == nil {
			c.err = ErrFromCode(fr.Code)
		}
	}
}

// Recv returns the next batch in order, or io.EOF after the stream's
// budget. It keeps the prefetch window full, parks on the inbox between
// arrivals, and fires hedged requests when the head of line stalls past
// HedgeDelay. The caller owns the returned batch.
func (c *Client) Recv(ctx context.Context) (*data.Batch, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.next >= c.total {
		return nil, io.EOF
	}
	if err := c.topUp(ctx); err != nil {
		return nil, err
	}
	waitStart := c.rt.Now()
	for {
		if c.err != nil {
			return nil, c.err
		}
		if p := c.seqs.find(c.next); p != nil && p.batch != nil {
			b := p.batch
			c.seqs.drop(c.next)
			c.next++
			now := c.rt.Now()
			c.mu.Lock()
			c.delivered++
			c.waits.AddDuration(now - waitStart)
			c.steps.AddDuration(now - c.lastAt)
			c.mu.Unlock()
			c.lastAt = now
			if err := c.topUp(ctx); err != nil {
				b.Release()
				return nil, err
			}
			return b, nil
		}
		var park time.Duration // 0 = no deadline
		if c.canHedge() {
			park = c.seqs.find(c.next).reqAt + c.cfg.HedgeDelay - c.rt.Now()
			if park <= 0 {
				c.fireHedge(ctx)
				continue
			}
		}
		idx, err := c.sel.Select(ctx, park, c.inbox)
		if err != nil {
			return nil, err
		}
		if idx == simtime.Heartbeat {
			c.fireHedge(ctx)
			continue
		}
		fr, ok, err := c.inbox.TryGet()
		if err != nil {
			return nil, err
		}
		if ok {
			c.handle(ctx, fr)
		}
	}
}

// Close tears the client's streams down: a CLOSE to every server not yet
// ended, then the inbox drains until each has sent its END — at which
// point all server-side state for this client is gone. Undelivered
// batches (reordered ahead, or in flight at close) are released back to
// the pool. Must run on a tracked task; idempotent.
func (c *Client) Close(ctx context.Context) error {
	for _, r := range []*remote{&c.primary, &c.replica} {
		if r.opened && !r.endSeen {
			if err := c.net.Send(ctx, r.ep, Frame{Op: OpClose, From: c.ep, Stream: r.stream}); err != nil {
				r.endSeen = true // cannot reach the server; stop waiting on it
			}
		}
	}
	for (c.primary.opened && !c.primary.endSeen) || (c.replica.opened && !c.replica.endSeen) {
		fr, err := c.inbox.Get(ctx)
		if err != nil {
			break
		}
		if fr.Op == OpBatch {
			fr.Batch.Release()
			continue
		}
		c.handle(ctx, fr)
	}
	// Release leftovers in sequence order so pool traffic is deterministic.
	// Every live sequence is at or past next.
	for seq, left := c.next, c.seqs.n; left > 0; seq++ {
		if p := c.seqs.find(seq); p != nil {
			left--
			if p.batch != nil {
				p.batch.Release()
				p.batch = nil
			}
		}
	}
	return nil
}

// ClientStats is a snapshot of one client's stream consumption.
type ClientStats struct {
	// Delivered counts batches handed to the consumer; Total the budget.
	Delivered int
	Total     int
	// WaitP50/WaitP99 are quantiles of the per-batch Recv block time (the
	// batch-wait SLO); StepP50/StepP99 of the inter-delivery interval.
	WaitP50, WaitP99 time.Duration
	StepP50, StepP99 time.Duration
	// Hedges counts hedged requests fired; Duplicates hedge (or stale)
	// batches received twice and released; Retries overloaded OPENs
	// retried.
	Hedges     int64
	Duplicates int64
	Retries    int64
	// MaxOutstanding is the high-water of simultaneously outstanding REQs
	// across both servers — bounded by the granted windows.
	MaxOutstanding int
}

func (cs ClientStats) String() string {
	return fmt.Sprintf("delivered %d/%d, wait p99 %v, hedges %d, dups %d",
		cs.Delivered, cs.Total, cs.WaitP99, cs.Hedges, cs.Duplicates)
}

// StatsView reads a client's counters from any goroutine: the live client's
// while one is attached, and from Retire on the snapshot Retire took. It
// outlives the client it watched, which Retire recycles.
type StatsView struct {
	mu    sync.Mutex
	c     *Client
	final ClientStats
}

// Attach makes v read c.
func (v *StatsView) Attach(c *Client) {
	v.mu.Lock()
	v.c = c
	v.mu.Unlock()
}

// Stats returns the attached client's counters, or the last snapshot.
func (v *StatsView) Stats() ClientStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.c != nil {
		return v.c.Stats()
	}
	return v.final
}

// Retire snapshots the attached client's counters, which v returns from now
// on, detaches the client and recycles it with its endpoint (Net.Hangup).
// The client must be closed, and Retire runs on its kernel: no task uses the
// client after Close, and no reader reaches it once v lets go.
func (v *StatsView) Retire() {
	v.mu.Lock()
	c := v.c
	v.final, v.c = c.Stats(), nil
	v.mu.Unlock()
	c.recycle()
}

// Stats returns a live snapshot; safe from any goroutine.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClientStats{
		Delivered:      c.delivered,
		Total:          c.total,
		Hedges:         c.nHedges,
		Duplicates:     c.nDups,
		Retries:        c.nRetry,
		MaxOutstanding: c.maxOut,
	}
	st.WaitP50 = c.waits.QuantileDuration(0.50)
	st.WaitP99 = c.waits.QuantileDuration(0.99)
	st.StepP50 = c.steps.QuantileDuration(0.50)
	st.StepP99 = c.steps.QuantileDuration(0.99)
	return st
}
