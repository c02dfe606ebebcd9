package minato

import (
	"io"

	"github.com/minatoloader/minato/internal/trace"
)

// Tracing vocabulary, re-exported from internal/trace.
type (
	// TraceSpan is one recorded interval (or instant, when Start == End) of
	// the simulation: a disk read, a cache fill, a transform execution, a
	// training step, a network flow, a fault window. Every field is stamped
	// from the virtual clock and every label is the one its layer recorded,
	// so a run's span set is bit-identical across repetitions of any run
	// that enters its kernel from one goroutine (see the internal trace
	// package's determinism notes for the exact boundary).
	TraceSpan = trace.Span
	// TraceStage classifies a TraceSpan (disk read, transform, GPU step…).
	TraceStage = trace.Stage
	// BatchPath is one delivered batch's critical-path decomposition: where
	// the wall time between two deliveries went (waiting on data, copying,
	// the GPU step, the all-reduce barrier, the network, downtime).
	BatchPath = trace.BatchPath
	// TraceAttribution aggregates BatchPaths into totals per category.
	TraceAttribution = trace.Attribution
)

// The trace stages, re-exported for filtering TraceSink.Spans. See the
// internal trace package for each stage's exact semantics.
const (
	TraceStageDiskRead    = trace.StageDiskRead
	TraceStageRemoteFetch = trace.StageRemoteFetch
	TraceStageCacheHit    = trace.StageCacheHit
	TraceStageCacheFill   = trace.StageCacheFill
	TraceStageCacheWait   = trace.StageCacheWait
	TraceStageMatHit      = trace.StageMatHit
	TraceStageMatFill     = trace.StageMatFill
	TraceStageMatWait     = trace.StageMatWait
	TraceStageTransform   = trace.StageTransform
	TraceStageQueueWait   = trace.StageQueueWait
	TraceStageAssemble    = trace.StageAssemble
	TraceStageDataWait    = trace.StageDataWait
	TraceStageCopy        = trace.StageCopy
	TraceStageGPUStep     = trace.StageGPUStep
	TraceStageBarrierWait = trace.StageBarrierWait
	TraceStageNetworkWait = trace.StageNetworkWait
	TraceStageDowntime    = trace.StageDowntime
	TraceStageDeviceRun   = trace.StageDeviceRun
	TraceStageFlow        = trace.StageFlow
	TraceStageFlowRate    = trace.StageFlowRate
	TraceStageFrame       = trace.StageFrame
	TraceStageFault       = trace.StageFault
	TraceStageFaultWindow = trace.StageFaultWindow
)

// TraceSink collects the spans of traced runs. Create one with
// NewTraceSink, attach it with WithTracing, and read it after (or during)
// the run:
//
//	sink := minato.NewTraceSink()
//	rep, err := minato.Train(w, minato.WithTracing(sink))
//	_ = sink.WriteChrome(f) // load f in Perfetto / chrome://tracing
//
// A sink becomes the recorder of the runtime it is attached to, and a runtime
// takes one sink. A sink is safe for concurrent use and may be shared across
// runs and runtimes (spans accumulate until Reset). The zero *TraceSink (nil)
// is a valid "tracing off" sink: every method no-ops, and the instrumented hot
// paths skip all recording — the disabled fast path costs one nil check and
// zero allocations.
type TraceSink struct {
	rec *trace.Recorder
}

// NewTraceSink returns an empty sink ready for WithTracing.
func NewTraceSink() *TraceSink { return &TraceSink{rec: trace.NewRecorder()} }

// recorder unwraps the sink for the internal layers; nil-safe.
func (s *TraceSink) recorder() *trace.Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Len returns how many spans the sink holds.
func (s *TraceSink) Len() int { return s.recorder().Len() }

// Spans returns the recorded spans in canonical order (sorted by start
// time, then end, stage, tenant, node, key, sequence). The slice is a
// snapshot: later recording does not disturb it.
func (s *TraceSink) Spans() []TraceSpan { return s.recorder().Snapshot() }

// CriticalPath walks the recorded step spans into per-batch journey
// decompositions — one BatchPath per delivered batch (and per crashed-node
// proxy round on elastic multi-node runs), in canonical order.
func (s *TraceSink) CriticalPath() []BatchPath {
	return trace.CriticalPath(s.recorder().Snapshot())
}

// Attribute sums BatchPaths into category totals. A nil keep includes
// every path; otherwise only paths keep returns true for are counted.
func (s *TraceSink) Attribute(keep func(BatchPath) bool) TraceAttribution {
	return trace.Attribute(s.CriticalPath(), keep)
}

// WriteChrome exports the sink's spans as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. The output bytes are a
// pure function of the span set: two deterministic runs export identical
// files.
func (s *TraceSink) WriteChrome(w io.Writer) error {
	return trace.WriteChrome(w, s.recorder().Snapshot())
}

// Reset discards the recorded spans, recycling the sink's buffers for the
// next run.
func (s *TraceSink) Reset() { s.recorder().Reset() }

// WithTracing records every layer of the run into sink: storage reads and
// remote fetches, page-cache and materialized-cache hit/miss/fill, worker
// transform executions, queue wait, batch assembly, GPU kernel occupancy
// and training steps, interconnect flow lifetimes and rate changes,
// service protocol frames, and chaos fault windows. See TraceSink for
// consuming the result.
//
// Tracing belongs to the runtime: the sink becomes the recorder of the
// runtime NewCluster or Serve runs on (or of the one a standalone
// Open or Train builds), and every layer on it records there —
// a sink given only to NewCluster also records its servers' frames, one
// given only to Serve also records its cluster's sessions. Sessions of an
// explicit cluster cannot carry it. A runtime takes one sink: the same
// sink again is accepted, a different one is a *ConfigError. A nil sink
// disables tracing (the default).
func WithTracing(sink *TraceSink) Option {
	return Option{name: "WithTracing", scope: implicit | atNewCluster | atServe, v: sink, apply: func(o *options, a Option) { o.trace = a.v.(*TraceSink).recorder() }}
}
