package minato

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
	"time"
)

// runTraced16TenantChaos runs the 16-tenant chaos scenario on one traced
// cluster: concurrent tenant sessions, each under a disk brownout, drained
// from independent goroutines. It returns the recorded spans.
func runTraced16TenantChaos(t *testing.T) []TraceSpan {
	t.Helper()
	sink := NewTraceSink()
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 16, GPUs: 1}), WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const tenants = 16
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		sess := openTenant(t, cl, fmt.Sprintf("tenant-%d", i), 256,
			WithSeed(uint64(i+1)),
			WithChaos(BrownoutDisk(time.Millisecond, 4, 2*time.Millisecond)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, err := range sess.Batches(context.Background()) {
				if err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := sess.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	return sink.Spans()
}

// TestTrace16TenantChaos checks the tracer under contention at the
// acceptance scale: 16 concurrent chaos-faulted tenants on one shared
// substrate, every layer recording into one sink. Within-run invariants —
// per-tenant span accounting and well-formed export — must hold exactly.
// (Cross-run byte-identity is asserted on the multinode and single-consumer
// scenarios below: with several tenants contending for the shared disk and
// cores, which same-instant request is served first is scheduler-dependent
// in the simulator itself, so the multi-tenant span set is reproducible
// only at the aggregate level the reports already pin.)
func TestTrace16TenantChaos(t *testing.T) {
	spans := runTraced16TenantChaos(t)
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	assembled := map[int32]int{}
	drawn := map[int32]int{}
	sourced := map[int32]bool{}
	for _, s := range spans {
		switch s.Stage {
		case TraceStageAssemble:
			assembled[s.Tenant]++
		case TraceStageQueueWait:
			drawn[s.Tenant]++
		case TraceStageDiskRead, TraceStageCacheFill, TraceStageCacheHit:
			sourced[s.Tenant] = true
		}
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
	for i := int32(1); i <= 16; i++ {
		if assembled[i] != 6 || drawn[i] != 6 {
			t.Fatalf("tenant %d: %d assembled / %d drawn spans, want 6/6",
				i, assembled[i], drawn[i])
		}
		if !sourced[i] {
			t.Fatalf("tenant %d: no storage spans", i)
		}
	}
}

// assertTraceByteIdentical runs a traced scenario twice, each into a fresh
// sink, and fails unless both export the same, non-empty Chrome JSON.
func assertTraceByteIdentical(t *testing.T, run func(sink *TraceSink) error) {
	t.Helper()
	export := func() []byte {
		sink := NewTraceSink()
		if err := run(sink); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sink.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("trace export differs across identical runs: %d vs %d bytes", len(a), len(b))
	}
}

// TestTraceDeterministicMultiNodeChaos proves the tentpole's determinism
// claim: two full 16-node chaos runs export byte-identical Chrome JSON.
// The CI race job runs this same test under -race, covering the third leg.
func TestTraceDeterministicMultiNodeChaos(t *testing.T) {
	assertTraceByteIdentical(t, func(sink *TraceSink) error {
		_, err := Train(workloadNamed("speech-3s", 5), WithLoader("minato"), WithNodes(16),
			WithGPUs(1), WithIterations(48), WithChaosScenario("link-flap"), WithTracing(sink))
		return err
	})
}

// TestTraceDeterministicSingleMachine proves byte-identity for a
// single-consumer training session — the configuration where every event
// in the simulation is a pure function of virtual time.
func TestTraceDeterministicSingleMachine(t *testing.T) {
	assertTraceByteIdentical(t, func(sink *TraceSink) error {
		_, err := Train(workloadNamed("speech-3s", 11), WithLoader("minato"), WithGPUs(1),
			WithIterations(30), WithTracing(sink))
		return err
	})
}

// TestTraceByteIdenticalRawLabels is byte-identity where a span's GPU label
// used to be ambiguous: several batch constructors of one loader, or several
// GPUs of one rank, woken at one virtual instant. Nothing relabels a span
// between Record and WriteChrome, so the export is identical only if which
// GPU trained which batch is itself a function of the program.
func TestTraceByteIdenticalRawLabels(t *testing.T) {
	for _, gpus := range []int{4, 64} {
		t.Run(fmt.Sprintf("train-%dgpu", gpus), func(t *testing.T) {
			assertTraceByteIdentical(t, func(sink *TraceSink) error {
				_, err := Train(workloadNamed("speech-3s", 11), WithLoader("minato"),
					WithHardware(ConfigA().WithGPUs(gpus)), WithIterations(10*gpus),
					WithTracing(sink))
				return err
			})
		})
	}
	t.Run("multinode-8x2-link-flap", func(t *testing.T) {
		assertTraceByteIdentical(t, func(sink *TraceSink) error {
			_, err := Train(workloadNamed("speech-3s", 5), WithLoader("minato"), WithNodes(8),
				WithGPUs(2), WithIterations(48), WithChaosScenario("link-flap"), WithTracing(sink))
			return err
		})
	})
}

// TestTraceExportsPinned holds seven traced runs, one per run shape the
// facade builds, to their Chrome export: FNV-64a of the bytes and the span
// count. Which layer attaches the recorder, and how, is wiring; a change to
// it that adds, drops or relabels a span fails here.
func TestTraceExportsPinned(t *testing.T) {
	speech := SpeechWorkload(1, 3*time.Second)
	pins := []struct {
		name  string
		spans int
		hash  uint64
		run   func(t *testing.T, sink *TraceSink)
	}{
		{"headline-minato", 16364, 0x29e7805874286dcb, func(t *testing.T, sink *TraceSink) {
			_, err := Train(speech.WithIterations(200), WithLoader("minato"),
				WithHardware(ConfigA()), WithTracing(sink))
			fatalIf(t, err)
		}},
		{"headline-dali", 3750, 0x38de325d6acc7928, func(t *testing.T, sink *TraceSink) {
			_, err := Train(speech.WithIterations(50), WithLoader("dali"),
				WithHardware(ConfigA()), WithTracing(sink))
			fatalIf(t, err)
		}},
		{"train-4gpu", 3263, 0x7e758f81cd7e23d7, func(t *testing.T, sink *TraceSink) {
			_, err := Train(workloadNamed("speech-3s", 11), WithLoader("minato"), WithHardware(ConfigA().WithGPUs(4)),
				WithIterations(40), WithTracing(sink))
			fatalIf(t, err)
		}},
		{"multinode-8x2-link-flap", 84306, 0x7e683cbe2d0b0207, func(t *testing.T, sink *TraceSink) {
			_, err := Train(workloadNamed("speech-3s", 5), WithLoader("minato"), WithNodes(8), WithGPUs(2),
				WithIterations(48), WithChaosScenario("link-flap"), WithTracing(sink))
			fatalIf(t, err)
		}},
		{"tenants4-matcache-brownout", 857, 0x7135f67394c5fe4f, func(t *testing.T, sink *TraceSink) {
			cl, err := NewCluster(WithEnv(EnvConfig{Cores: 8, GPUs: 2}),
				WithMaterializedCache(32<<20), WithTracing(sink))
			fatalIf(t, err)
			defer cl.Close()
			sessions := make([]*Session, 4)
			for i := range sessions {
				sessions[i] = openTenant(t, cl, "pinned-shared", 64, WithSeed(uint64(i+1)),
					WithIterations(0), WithEpochs(2),
					WithChaos(BrownoutDisk(time.Millisecond, 4, 2*time.Millisecond)))
			}
			streamAllAndClose(t, sessions)
		}},
		{"warm-speech-tenants3", 5300, 0x1536627cfdcf3489, func(t *testing.T, sink *TraceSink) {
			cl, err := NewCluster(WithHardware(ConfigA()), WithMaterializedCache(4<<30), WithTracing(sink))
			fatalIf(t, err)
			defer cl.Close()
			sessions := make([]*Session, 3)
			for i := range sessions {
				sessions[i], err = cl.Open(SubsetDataset(speech.Dataset, 512), WithPipeline(speech.Pipeline),
					WithBatchSize(16), WithEpochs(2), WithGPUs(1), WithSeed(uint64(i+1)))
				fatalIf(t, err)
			}
			streamAllAndClose(t, sessions)
		}},
		{"served-4clients-link-flap", 991, 0x5b0c9dc46d6e50f8, func(t *testing.T, sink *TraceSink) {
			sn := NewServiceNet(nil, ServiceNetConfig{})
			cl := serveCluster(t, sn, WithTracing(sink))
			defer cl.Close()
			addr, err := Serve(cl, WithServiceNet(sn), WithTracing(sink),
				WithChaos(FlapLink(0, 5*time.Millisecond, 8, 20*time.Millisecond)),
				Publish("train", serveDataset{space: "pinned-served", n: 256}, flatPipeline(time.Millisecond)))
			fatalIf(t, err)
			defer addr.Close()
			clients := make([]*RemoteSession, 4)
			for i := range clients {
				clients[i], err = Dial(addr, WithBatchSize(8), WithIterations(8), WithSeed(uint64(i+1)))
				fatalIf(t, err)
			}
			StreamAll(context.Background(), clients, func(_ int, rs *RemoteSession) { drainRemote(t, rs) })
			for _, rs := range clients {
				_, err := rs.Close()
				fatalIf(t, err)
			}
		}},
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			sink := NewTraceSink()
			p.run(t, sink)
			h := fnv.New64a()
			if err := sink.WriteChrome(h); err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); sink.Len() != p.spans || got != p.hash {
				t.Errorf("%d spans, export fnv64a %#x; pinned %d, %#x", sink.Len(), got, p.spans, p.hash)
			}
		})
	}
}

func fatalIf(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// streamAllAndClose drains every session through StreamAll, the
// deterministic entry for sessions of one cluster, then closes them.
func streamAllAndClose(t *testing.T, sessions []*Session) {
	t.Helper()
	StreamAll(context.Background(), sessions, func(_ int, s *Session) {
		for _, err := range s.Batches(context.Background()) {
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	for _, s := range sessions {
		_, err := s.Close()
		fatalIf(t, err)
	}
}

// TestTraceLabelsAreTheGPUs checks that the labels in a 4-GPU trace are the
// real ones: every GPU trains batches under its own index, each journey's
// gpu-step span is covered by a device-run span of the same GPU over the
// same interval, and the analyzer still reproduces Report.DataStall.
func TestTraceLabelsAreTheGPUs(t *testing.T) {
	sink := NewTraceSink()
	rep, err := Train(workloadNamed("speech-3s", 11), WithLoader("minato"),
		WithHardware(ConfigA().WithGPUs(4)), WithIterations(40), WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	type occupancy struct {
		gpu        int64
		start, end time.Duration
	}
	deviceRuns := map[occupancy]bool{}
	var steps []TraceSpan
	for _, s := range sink.Spans() {
		switch s.Stage {
		case TraceStageDeviceRun:
			deviceRuns[occupancy{s.Key, s.Start, s.End}] = true
		case TraceStageGPUStep:
			steps = append(steps, s)
		}
	}
	if int64(len(steps)) != rep.Batches {
		t.Fatalf("%d gpu-step spans for %d batches", len(steps), rep.Batches)
	}
	for _, s := range steps {
		if !deviceRuns[occupancy{s.Key, s.Start, s.End}] {
			t.Fatalf("gpu-step of batch %d on gpu %d over [%v, %v] has no device-run span of that GPU",
				s.Seq, s.Key, s.Start, s.End)
		}
	}
	trained := map[int64]int{}
	for _, p := range sink.CriticalPath() {
		trained[p.GPU]++
	}
	for g := int64(0); g < 4; g++ {
		if trained[g] == 0 {
			t.Fatalf("GPU %d appears on no batch path: %v", g, trained)
		}
	}
	if len(trained) != 4 {
		t.Fatalf("batch paths name GPUs %v, want exactly 0-3", trained)
	}
	if attr := sink.Attribute(nil); attr.DataWait != rep.DataStall {
		t.Fatalf("analyzer DataWait %v != Report.DataStall %v", attr.DataWait, rep.DataStall)
	}
}

// TestTraceCriticalPathMatchesDataStall checks the analyzer against the
// counter it replaces: on a traced single-machine run, the per-batch
// DataWait attribution sums to Report.DataStall exactly, and every
// journey's stage components tile its latency.
func TestTraceCriticalPathMatchesDataStall(t *testing.T) {
	sink := NewTraceSink()
	rep, err := Train(workloadNamed("speech-3s", 7), WithLoader("minato"), WithIterations(40),
		WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	paths := sink.CriticalPath()
	if len(paths) == 0 {
		t.Fatal("no batch paths in trace")
	}
	var dataWait time.Duration
	for _, p := range paths {
		dataWait += p.DataWait
		sum := p.DataWait + p.Copy + p.GPUStep + p.BarrierWait +
			p.NetworkWait + p.Downtime + p.Other
		if sum != p.Latency() {
			t.Fatalf("journey (gpu %d, seq %d): components sum %v != latency %v",
				p.GPU, p.Seq, sum, p.Latency())
		}
		if p.DataWait < 0 || p.Copy < 0 || p.GPUStep < 0 || p.BarrierWait < 0 ||
			p.NetworkWait < 0 || p.Downtime < 0 {
			t.Fatalf("journey (gpu %d, seq %d): negative stage component: %+v", p.GPU, p.Seq, p)
		}
	}
	if dataWait != rep.DataStall {
		t.Fatalf("analyzer DataWait %v != Report.DataStall %v", dataWait, rep.DataStall)
	}
	attr := sink.Attribute(nil)
	if attr.Batches != len(paths) || attr.DataWait != dataWait {
		t.Fatalf("Attribute mismatch: %+v vs %d paths / %v data wait", attr, len(paths), dataWait)
	}
}

// TestTraceMultiNodeAgreesWithCounters runs traced elastic multi-node jobs
// under link and membership chaos and checks the analyzer against the
// report's stall counters, the cluster totals and every PerNode row: data,
// barrier and network stall and the crashed nodes' downtime. The ledger
// counts each wait and records its span from the same instants, so they
// agree to the nanosecond.
func TestTraceMultiNodeAgreesWithCounters(t *testing.T) {
	for _, scenario := range []string{"link-flap", "node-crash", "churn-storm"} {
		t.Run(scenario, func(t *testing.T) {
			sink := NewTraceSink()
			rep, err := Train(workloadNamed("speech-3s", 3), WithLoader("minato"), WithNodes(4),
				WithGPUs(1), WithIterations(30), WithChaosScenario(scenario), WithTracing(sink))
			if err != nil {
				t.Fatal(err)
			}
			attr := sink.Attribute(nil)
			if attr.Batches == 0 {
				t.Fatal("no batch paths in multi-node trace")
			}
			if attr.DataWait != rep.DataStall {
				t.Fatalf("analyzer DataWait %v != DataStall %v", attr.DataWait, rep.DataStall)
			}
			if attr.BarrierWait != rep.BarrierStall {
				t.Fatalf("analyzer BarrierWait %v != BarrierStall %v", attr.BarrierWait, rep.BarrierStall)
			}
			if attr.NetworkWait != rep.NetworkStall {
				t.Fatalf("analyzer NetworkWait %v != NetworkStall %v", attr.NetworkWait, rep.NetworkStall)
			}
			var downtime time.Duration
			for i, n := range rep.PerNode {
				a := sink.Attribute(func(p BatchPath) bool { return p.Node == int32(i) })
				if a.DataWait != n.DataStall || a.BarrierWait != n.BarrierStall ||
					a.NetworkWait != n.NetworkStall || a.Downtime != n.Downtime {
					t.Errorf("node %d: analyzer data/barrier/network/down %v/%v/%v/%v, report %v/%v/%v/%v", i,
						a.DataWait, a.BarrierWait, a.NetworkWait, a.Downtime,
						n.DataStall, n.BarrierStall, n.NetworkStall, n.Downtime)
				}
				downtime += n.Downtime
			}
			if crashes := scenario != "link-flap"; crashes != (downtime > 0) {
				t.Errorf("downtime %v across nodes under %s", downtime, scenario)
			}
		})
	}
}

// TestNilTraceSink pins the tracing-off contract: a nil sink is valid
// everywhere — every method no-ops, WithTracing(nil) trains normally, and
// the export is a well-formed empty trace.
func TestNilTraceSink(t *testing.T) {
	var sink *TraceSink
	if sink.Len() != 0 || len(sink.Spans()) != 0 || len(sink.CriticalPath()) != 0 {
		t.Fatal("nil sink not empty")
	}
	var buf bytes.Buffer
	if err := sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nil sink export wrote nothing")
	}
	sink.Reset()
	rep, err := Train(workloadNamed("speech-3s", 1), WithLoader("minato"), WithIterations(5), WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches == 0 {
		t.Fatal("no batches with nil trace sink")
	}
}

// TestTracingClusterOwned pins WithTracing's ownership: sessions of an
// explicit cluster must not carry their own sink.
func TestTracingClusterOwned(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Open(namedDataset{space: "t", n: 32},
		WithPipeline(flatPipeline(time.Millisecond)), WithBatchSize(8),
		WithIterations(2), WithTracing(NewTraceSink()))
	if err == nil {
		t.Fatal("cluster session accepted WithTracing; want cluster-owned error")
	}
}

// TestTracingOneSinkPerRuntime: tracing belongs to the runtime, which takes
// one sink. Attaching the same sink again — the cluster and its server — is
// fine; a different one, from either entry point, is a *ConfigError.
func TestTracingOneSinkPerRuntime(t *testing.T) {
	sink := NewTraceSink()
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4, GPUs: 1}), WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var ce *ConfigError
	if _, err := NewCluster(WithRuntime(cl.Runtime()), WithTracing(NewTraceSink())); !errors.As(err, &ce) || ce.Option != "WithTracing" {
		t.Fatalf("a second cluster with another sink: %v, want a WithTracing *ConfigError", err)
	}
	second, err := NewCluster(WithRuntime(cl.Runtime()), WithTracing(sink))
	if err != nil {
		t.Fatalf("a second cluster with the same sink: %v", err)
	}
	defer second.Close()
	pub := Publish("train", namedDataset{space: "one-sink", n: 64}, flatPipeline(time.Millisecond))
	if _, err := Serve(cl, pub, WithTracing(NewTraceSink())); !errors.As(err, &ce) || ce.Option != "WithTracing" {
		t.Fatalf("a server with another sink: %v, want a WithTracing *ConfigError", err)
	}
	addr, err := Serve(cl, pub, WithTracing(sink))
	if err != nil {
		t.Fatalf("a server with the cluster's sink: %v", err)
	}
	_ = addr.Close()
}

// TestServeTracingRecordsClusterLayers: a sink given only to Serve traces the
// runtime, so the backing cluster's storage, workers and batch assembly are
// recorded beside the server's frames.
func TestServeTracingRecordsClusterLayers(t *testing.T) {
	sink := NewTraceSink()
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn)
	defer cl.Close()
	addr, err := Serve(cl, WithServiceNet(sn), WithTracing(sink),
		Publish("train", serveDataset{space: "serve-traced", n: 64}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()
	rs, err := Dial(addr, WithBatchSize(8), WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	drainRemote(t, rs)
	if _, err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	stages := map[TraceStage]int{}
	for _, s := range sink.Spans() {
		stages[s.Stage]++
	}
	for _, st := range []TraceStage{TraceStageDiskRead, TraceStageTransform, TraceStageAssemble, TraceStageFrame} {
		if stages[st] == 0 {
			t.Errorf("no %v span: %v", st, stages)
		}
	}
}

// scalarFields flattens a report's exported scalar fields — strings,
// integers (durations included) and floats, through nested and embedded
// structs — into name → value. Slices, maps and pointers are not scalars.
func scalarFields(prefix string, v reflect.Value, into map[string]any) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Struct:
			scalarFields(prefix+f.Name+".", fv, into)
		case reflect.String, reflect.Int, reflect.Int64, reflect.Float64:
			into[prefix+f.Name] = fv.Interface()
		}
	}
}

// TestHeadlinePinsTracedAndUntraced holds the paper's headline comparison —
// Speech-3s on ConfigA, 200 iterations, seed 1, every default loader — to
// the nanosecond: the three training times below are 7.032× over pytorch,
// 2.430× over dali and (with the utilisation pin) 92.98 % GPU utilisation,
// the same values bench/workloads.go pins for headline-speech3s. Each
// loader runs once plain and once traced; tracing records and must not
// perturb, so every scalar of the two reports has to be equal.
func TestHeadlinePinsTracedAndUntraced(t *testing.T) {
	want := map[string]time.Duration{
		"pytorch": 453790945873,
		"pecan":   453790945873, // pytorch with AutoOrder, which moves no cost on Speech
		"dali":    156816959218,
		"minato":  64530666780,
	}
	w := SpeechWorkload(1, 3*time.Second).WithIterations(200)
	got := map[string]*Report{}
	for _, backend := range []string{"pytorch", "pecan", "dali", "minato"} {
		plain, err := Train(w, WithLoader(backend), WithHardware(ConfigA()))
		if err != nil {
			t.Fatal(err)
		}
		sink := NewTraceSink()
		traced, err := Train(w, WithLoader(backend), WithHardware(ConfigA()), WithTracing(sink))
		if err != nil {
			t.Fatal(err)
		}
		if sink.Len() == 0 {
			t.Fatalf("%s: traced run recorded no spans", backend)
		}
		if pin, ok := want[backend]; !ok {
			t.Fatalf("%s: default loader without a pinned TrainTime", backend)
		} else if plain.TrainTime != pin {
			t.Errorf("%s: TrainTime %d ns, pinned %d ns", backend, plain.TrainTime, pin)
		}
		a, b := map[string]any{}, map[string]any{}
		scalarFields("", reflect.ValueOf(*plain), a)
		scalarFields("", reflect.ValueOf(*traced), b)
		for _, name := range []string{"TrainTime", "AvgGPUUtil", "Samples", "StallBreakdown.DataStall", "StallBreakdown.StepP99"} {
			if a[name] == nil {
				t.Fatalf("scalarFields missed %s: %v", name, a)
			}
		}
		for name, v := range a {
			if b[name] != v {
				t.Errorf("%s: %s is %v untraced, %v traced", backend, name, v, b[name])
			}
		}
		got[backend] = plain
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d loaders, pinned %d", len(got), len(want))
	}
	m := got["minato"]
	if util := fmt.Sprintf("%.2f", m.AvgGPUUtil); util != "92.98" {
		t.Errorf("minato GPU utilisation %s %%, pinned 92.98", util)
	}
	for name, x := range map[string]string{"pytorch": "7.032", "dali": "2.430"} {
		if s := fmt.Sprintf("%.3f", got[name].TrainTime.Seconds()/m.TrainTime.Seconds()); s != x {
			t.Errorf("speedup over %s is %s, pinned %s", name, s, x)
		}
	}
}
