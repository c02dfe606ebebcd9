package minato

import (
	"errors"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/service"
)

// Error taxonomy. Every error the public API returns for misuse is one of
// the following, so callers can branch without string matching:
//
//   - *ConfigError — an option conflict, an invalid option value, or an
//     option outside the scope of the entry point it was handed to, at any
//     entry point that takes options. Matchable with errors.As; Option
//     names the offending With* option.
//   - ErrSessionConsumed — Batches ranged a second time. A session streams
//     its batch budget exactly once.
//   - ErrSessionClosed — Batches called after Close.
//   - ErrClusterSaturated — Cluster.Open/Train under WithMaxSessions with
//     the AdmitReject policy while every session slot is taken.
//   - ErrClusterClosed — an operation on a closed Cluster, including opens
//     that were queued (AdmitQueue) when the cluster shut down.
//   - ErrPreempted — a WithChaos script preempted the session and schedules
//     no resume: the stream/training run halts at the next step boundary.
//     Checkpoint the session and Resume it to continue warm.
//   - ErrNodeLost — a multi-node Train's chaos script crashed the last live
//     node, leaving the cluster unable to make progress (a crash with a
//     scheduled rejoin keeps the run alive; losing everyone does not).
//   - ErrUnauthorized — a Dial presented a token a token-gated server
//     (Serve + WithToken) does not recognize.
//   - ErrQuotaExceeded — a Dial's token is at its concurrent-stream quota
//     on the server.
//   - ErrServerOverloaded — a served cluster rejected a Dial at stream
//     capacity (WithServerMaxStreams, or the backing cluster saturated);
//     WithDialRetry retries with backoff before surfacing it. Also ends a
//     remote stream whose client violates the granted send window.
//
// Runtime errors (a cancelled context, a failing loader) pass through
// unwrapped: they are the underlying error, not a member of this taxonomy.

// ConfigError reports an invalid or conflicting functional option. It is
// returned (wrapped in nothing) by every configuration entry point, so
//
//	var ce *minato.ConfigError
//	if errors.As(err, &ce) { log.Fatalf("bad %s: %s", ce.Option, ce.Reason) }
//
// distinguishes caller bugs from runtime failures.
type ConfigError struct {
	// Option is the name of the offending option ("WithBatchSize",
	// "WithHardware/WithEnv" for a conflicting pair, ...).
	Option string
	// Reason says what is wrong with it.
	Reason string
}

func (e *ConfigError) Error() string {
	return "minato: invalid " + e.Option + ": " + e.Reason
}

// ErrSessionConsumed is returned when Batches is ranged over a second
// time: a session streams its batch budget exactly once.
var ErrSessionConsumed = errors.New("minato: session batches already consumed")

// ErrSessionClosed is returned when Batches is called after Close.
var ErrSessionClosed = errors.New("minato: session closed")

// ErrClusterSaturated is returned by Cluster.Open and Cluster.Train when
// the cluster is at WithMaxSessions capacity and admission policy is
// AdmitReject (the default).
var ErrClusterSaturated = errors.New("minato: cluster saturated")

// ErrClusterClosed is returned for operations on a closed Cluster,
// including queued opens released by Close.
var ErrClusterClosed = errors.New("minato: cluster closed")

// ErrPreempted is returned when a WithChaos script preempts a session with
// no resume scheduled: Batches yields it once and ends the stream; Train
// returns it as the session error. The session's progress survives —
// Checkpoint then Resume continues against the still-warm caches.
var ErrPreempted = chaos.ErrPreempted

// ErrNodeLost is returned by a multi-node Train when a chaos script crashes
// the last live node: a synchronous data-parallel cluster with no
// survivors cannot complete a step, so the run unwinds instead of
// spinning. Crash events that leave at least one node active are handled
// elastically and are not errors.
var ErrNodeLost = chaos.ErrNodeLost

// ErrUnauthorized is returned by Dial when a token-gated preprocessing
// server does not recognize the presented auth token (WithAuthToken).
var ErrUnauthorized = service.ErrUnauthorized

// ErrQuotaExceeded is returned by Dial when the presented token is
// already at its concurrent-stream quota (WithToken's TokenQuota).
var ErrQuotaExceeded = service.ErrQuotaExceeded

// ErrServerOverloaded is returned by Dial when the preprocessing server
// (or its backing cluster) is at stream capacity — retried with backoff
// under WithDialRetry before surfacing — and by a remote stream the
// server killed for violating its granted send window.
var ErrServerOverloaded = service.ErrServerOverloaded

// configErr builds a *ConfigError.
func configErr(option, reason string) error {
	return &ConfigError{Option: option, Reason: reason}
}
