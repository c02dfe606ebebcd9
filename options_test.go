package minato

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// matrixWorkload is a speech workload small enough to train in every cell of
// the scope matrix: 96 samples in batches of 24, four iterations.
func matrixWorkload(seed uint64) Workload {
	w := SpeechWorkload(seed, 3*time.Second)
	w.Dataset = SubsetDataset(w.Dataset, 96)
	return w.WithIterations(4)
}

var registerMatrix = sync.OnceFunc(func() {
	RegisterWorkload("matrix-speech", matrixWorkload)
	RegisterChaosScenario("matrix-blip", func() ChaosScript {
		return BrownoutDisk(time.Millisecond, 4, time.Millisecond)
	})
})

// matrixFixture is what one cell's option and entry point share: a runtime
// and fabric for the options that take one, the sink and the counting
// pipeline the observers read, and the replica a hedged Dial needs.
type matrixFixture struct {
	rt       *Runtime
	sn       *ServiceNet
	sink     *TraceSink
	costed   int // samples the counting pipeline was asked to cost
	replica  *ServerAddr
	pipeline *Pipeline
}

func newMatrixFixture() *matrixFixture {
	fx := &matrixFixture{sn: NewServiceNet(nil, ServiceNetConfig{}), sink: NewTraceSink()}
	fx.rt = fx.sn.Runtime()
	fx.pipeline = NewPipeline("counting", NewTransform("step", func(*Sample) time.Duration {
		fx.costed++
		return time.Millisecond
	}, nil))
	return fx
}

// matrixResult is what an entry point handed back, whichever it was.
type matrixResult struct {
	rep  *Report // a drained session's, a dialed stream's, or a training run's
	sess *Session
	rs   *RemoteSession
	cl   *Cluster // NewCluster's, or the one a session ran on
	addr *ServerAddr
}

// gpus is a session's GPU count, per node on a multi-node run.
func (r matrixResult) gpus() int {
	switch {
	case r.rep != nil && r.rep.Nodes > 0:
		return r.rep.PerNode[0].GPUs
	case r.rep != nil:
		return r.rep.GPUs
	default:
		return len(r.cl.tb.GPUs)
	}
}

// matrixOptions is every exported option constructor, called with arguments
// each entry point in its scope accepts, and what to look for in the result
// of one that accepted it (nil: the result has nowhere it would show).
var matrixOptions = []struct {
	mk   func(fx *matrixFixture) Option
	seen func(t *testing.T, fx *matrixFixture, at entry, r matrixResult)
}{
	{func(fx *matrixFixture) Option { return WithPipeline(fx.pipeline) },
		func(t *testing.T, fx *matrixFixture, _ entry, _ matrixResult) {
			if fx.costed == 0 {
				t.Error("the pipeline never ran")
			}
		}},
	{func(*matrixFixture) Option { return WithBatchSize(4) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.rep.Batches == 0 || r.rep.Samples != 4*r.rep.Batches {
				t.Errorf("%d samples in %d batches, want 4 each", r.rep.Samples, r.rep.Batches)
			}
		}},
	{func(*matrixFixture) Option { return WithLoader("pytorch") },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.rep.Loader != "pytorch" {
				t.Errorf("loader %q", r.rep.Loader)
			}
		}},
	{func(*matrixFixture) Option {
		f, _ := LoaderByName("dali")
		f.Name = "matrix-custom"
		return WithLoaderFactory(f)
	},
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.rep.Loader != "matrix-custom" {
				t.Errorf("loader %q", r.rep.Loader)
			}
		}},
	{func(*matrixFixture) Option {
		cfg := DefaultConfig()
		cfg.WarmupSamples = 8
		return WithLoaderConfig(cfg)
	},
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.rep.Loader != "minato" {
				t.Errorf("loader %q", r.rep.Loader)
			}
			if r.sess != nil {
				if _, ok := r.sess.Loader().(*Loader); !ok {
					t.Errorf("the session's loader is a %T", r.sess.Loader())
				}
			}
		}},
	{func(*matrixFixture) Option { return WithHardware(ConfigB()) },
		func(t *testing.T, _ *matrixFixture, at entry, r matrixResult) {
			if at == atMultiNode {
				if hw := r.rep.PerNode[0].Hardware; !strings.HasPrefix(hw, ConfigB().Name) {
					t.Errorf("node hardware %q", hw)
				}
			} else if r.gpus() != ConfigB().GPUCount {
				t.Errorf("%d GPUs, want ConfigB's %d", r.gpus(), ConfigB().GPUCount)
			}
		}},
	{func(*matrixFixture) Option { return WithEnv(EnvConfig{Cores: 4, GPUs: 3}) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.gpus() != 3 {
				t.Errorf("%d GPUs, want 3", r.gpus())
			}
		}},
	{func(*matrixFixture) Option { return WithGPUs(2) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.gpus() != 2 {
				t.Errorf("%d GPUs, want 2", r.gpus())
			}
		}},
	{func(fx *matrixFixture) Option { return WithRuntime(fx.rt) },
		func(t *testing.T, fx *matrixFixture, _ entry, r matrixResult) {
			if r.cl.Runtime() != fx.rt {
				t.Error("the cluster runs on a runtime of its own")
			}
		}},
	{func(*matrixFixture) Option { return WithMaterializedCache(1 << 28) },
		func(t *testing.T, _ *matrixFixture, at entry, r matrixResult) {
			if at == atNewCluster {
				if r.cl.mat == nil {
					t.Error("the cluster has no materialized cache")
				}
			} else if r.rep.MatCacheStats.Fills == 0 {
				t.Errorf("nothing materialized: %+v", r.rep.MatCacheStats)
			}
		}},
	{func(*matrixFixture) Option { return WithIterations(2) },
		func(t *testing.T, _ *matrixFixture, at entry, r matrixResult) {
			if at == atMultiNode && r.rep.Steps != 2 {
				t.Errorf("%d steps, want 2", r.rep.Steps)
			} else if at != atMultiNode && r.rep.Batches != 2 {
				t.Errorf("%d batches, want 2", r.rep.Batches)
			}
		}},
	// Two epochs are observable where no WithIterations in the cell's base
	// options takes precedence: the training entry points, whose budget is
	// the workload's.
	{func(*matrixFixture) Option { return WithEpochs(2) },
		func(t *testing.T, _ *matrixFixture, at entry, r matrixResult) {
			if at&trains != 0 && r.rep.Batches != 8 {
				t.Errorf("%d batches, want two epochs of 4", r.rep.Batches)
			}
		}},
	{func(*matrixFixture) Option { return WithSeed(7) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.sess != nil && r.sess.spec.Seed != 7 {
				t.Errorf("session seed %d", r.sess.spec.Seed)
			}
		}},
	{func(*matrixFixture) Option { return WithParams(Params{TraceSamples: true}) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if len(r.rep.SampleTraces) == 0 {
				t.Error("no sample traces recorded")
			}
		}},
	{func(*matrixFixture) Option { return WithRetainBatches() },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if (r.sess != nil && !r.sess.retain) || (r.rs != nil && !r.rs.retain) {
				t.Error("the stream recycles its batches")
			}
		}},
	{func(*matrixFixture) Option { return WithPriority(3) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.sess != nil && r.sess.Stats().Priority != 3 {
				t.Errorf("priority %g", r.sess.Stats().Priority)
			}
		}},
	{func(*matrixFixture) Option { return WithMaxSessions(5) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if got := r.cl.Stats().MaxSessions; got != 5 {
				t.Errorf("session cap %d", got)
			}
		}},
	{func(*matrixFixture) Option { return WithAdmission(AdmitQueue) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.cl.admission != AdmitQueue {
				t.Error("the cluster rejects instead of queueing")
			}
		}},
	// WithNodes and WithTopology turn the Train column's call into a
	// multi-node run; the report says it went across nodes.
	{func(*matrixFixture) Option { return WithNodes(3) }, seenNodes},
	{func(*matrixFixture) Option { return WithTopology(Topology{Nodes: 3, LocalStore: true}) }, seenNodes},
	{func(*matrixFixture) Option { return WithChaos(BrownoutDisk(time.Millisecond, 4, time.Millisecond)) },
		seenFaults},
	{func(*matrixFixture) Option { return WithChaosScenario("matrix-blip") }, seenFaults},
	{func(fx *matrixFixture) Option { return WithTracing(fx.sink) },
		func(t *testing.T, fx *matrixFixture, at entry, r matrixResult) {
			switch at {
			case atNewCluster:
				if r.cl.rt.k.Trace() != fx.sink.rec {
					t.Error("the cluster's runtime does not record into the sink")
				}
			case atServe:
				if r.addr.rt.k.Trace() != fx.sink.rec {
					t.Error("the server's runtime does not record into the sink")
				}
			default:
				if fx.sink.Len() == 0 {
					t.Error("the run recorded no span")
				}
			}
		}},
	{func(fx *matrixFixture) Option { return WithServiceNet(fx.sn) },
		func(t *testing.T, fx *matrixFixture, _ entry, r matrixResult) {
			if r.addr.sn != fx.sn {
				t.Error("the server built a fabric of its own")
			}
		}},
	{func(*matrixFixture) Option { return WithToken("matrix", TokenQuota{}) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if _, err := Dial(r.addr, WithAuthToken("nobody")); !errors.Is(err, ErrUnauthorized) {
				t.Errorf("a stranger's Dial: %v, want ErrUnauthorized", err)
			}
		}},
	{func(*matrixFixture) Option { return WithSendWindow(2) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			rs, err := Dial(r.addr, WithPrefetch(6), WithBatchSize(8), WithIterations(6))
			if err != nil {
				t.Fatal(err)
			}
			drainRemote(t, rs)
			if got := rs.Stats().MaxOutstanding; got > 2 {
				t.Errorf("%d requests outstanding past a send window of 2", got)
			}
			_, _ = rs.Close()
		}},
	{func(*matrixFixture) Option { return WithServerMaxStreams(1) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			first, err := Dial(r.addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Dial(r.addr); !errors.Is(err, ErrServerOverloaded) {
				t.Errorf("second stream: %v, want ErrServerOverloaded", err)
			}
			_, _ = first.Close()
		}},
	{func(*matrixFixture) Option { return Publish("extra", sessionDataset{n: 64}, nil) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if !slices.Contains(r.addr.Streams(), "extra") {
				t.Errorf("streams %v", r.addr.Streams())
			}
		}},
	{func(*matrixFixture) Option { return WithStream("train") },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.rep.Workload != "train" {
				t.Errorf("streamed %q", r.rep.Workload)
			}
		}},
	// The cell's server is token-gated, so a Dial that delivered was
	// authenticated.
	{func(*matrixFixture) Option { return WithAuthToken("alice") }, nil},
	{func(*matrixFixture) Option { return WithPrefetch(2) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if got := r.rs.Stats().MaxOutstanding; got == 0 || got > 2 {
				t.Errorf("%d requests outstanding at a depth of 2", got)
			}
		}},
	{func(fx *matrixFixture) Option { return WithHedge(fx.replica, time.Microsecond) },
		func(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
			if r.rs.Stats().Hedges == 0 {
				t.Error("a microsecond hedge delay never fired")
			}
		}},
	// Retries show only against an overloaded server; the cell's is not.
	{func(*matrixFixture) Option { return WithDialRetry(2, time.Millisecond) }, nil},
}

func seenFaults(t *testing.T, _ *matrixFixture, at entry, r matrixResult) {
	if at != atServe && len(r.rep.Faults) == 0 {
		t.Error("no fault window recorded")
	}
}

func seenNodes(t *testing.T, _ *matrixFixture, _ entry, r matrixResult) {
	if r.rep.Nodes != 3 || len(r.rep.PerNode) != 3 {
		t.Errorf("%d nodes, %d per-node rows; want a 3-node run", r.rep.Nodes, len(r.rep.PerNode))
	}
}

// matrixEntries is every exported entry point that takes options, each called
// with what it needs besides the option under test (which comes last, so it
// wins over the base options), and the entry it runs as. Each training entry
// runs twice: on the registered matrix workload (WorkloadByName), and — in
// the *Workload columns — on a value built directly. TrainMultiNode is Train
// given WithNodes; TrainWorkload and TrainMultiNodeWorkload are the
// deprecated forwarders the benchmark still calls.
var matrixEntries = []struct {
	name string
	at   entry
	call func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error)
}{
	{"Open", atOpen, func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		sess, err := Open(sessionDataset{n: 64}, WithPipeline(flatPipeline(time.Millisecond)),
			WithBatchSize(8), WithIterations(3), mk(fx))
		if err != nil {
			return matrixResult{}, err
		}
		return matrixResult{sess: sess, cl: sess.cl, rep: drain(t, sess)}, nil
	}},
	{"Cluster.Open", atClusterOpen, func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		cl := matrixCluster(t, WithEnv(EnvConfig{Cores: 8, GPUs: 4}))
		sess, err := cl.Open(sessionDataset{n: 64}, WithPipeline(flatPipeline(time.Millisecond)),
			WithBatchSize(8), WithIterations(3), mk(fx))
		if err != nil {
			return matrixResult{}, err
		}
		return matrixResult{sess: sess, cl: cl, rep: drain(t, sess)}, nil
	}},
	{"Train", atTrain, func(_ *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		rep, err := Train(workloadNamed("matrix-speech", 1), mk(fx))
		return matrixResult{rep: rep}, err
	}},
	{"TrainWorkload", atTrain, func(_ *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		rep, err := TrainWorkload(matrixWorkload(1), mk(fx))
		return matrixResult{rep: rep}, err
	}},
	{"Cluster.Train", atClusterTrain, func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		cl := matrixCluster(t, WithHardware(ConfigA()))
		rep, err := cl.Train(workloadNamed("matrix-speech", 1), mk(fx))
		return matrixResult{rep: rep, cl: cl}, err
	}},
	{"Cluster.TrainWorkload", atClusterTrain, func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		cl := matrixCluster(t, WithHardware(ConfigA()))
		rep, err := cl.Train(matrixWorkload(1), mk(fx))
		return matrixResult{rep: rep, cl: cl}, err
	}},
	{"TrainMultiNode", atMultiNode, func(_ *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		rep, err := Train(workloadNamed("matrix-speech", 1), WithNodes(2), WithGPUs(1), mk(fx))
		return matrixResult{rep: rep}, err
	}},
	{"TrainMultiNodeWorkload", atMultiNode, func(_ *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		rep, err := TrainMultiNodeWorkload(matrixWorkload(1), WithNodes(2), WithGPUs(1), mk(fx))
		return matrixResult{rep: rep}, err
	}},
	{"NewCluster", atNewCluster, func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		cl, err := NewCluster(mk(fx))
		if err != nil {
			return matrixResult{}, err
		}
		t.Cleanup(func() { _ = cl.Close() })
		return matrixResult{cl: cl}, nil
	}},
	{"Serve", atServe, func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		addr, err := Serve(serveCluster(t, fx.sn), WithServiceNet(fx.sn),
			Publish("train", sessionDataset{n: 64}, flatPipeline(time.Millisecond)), mk(fx))
		if err != nil {
			return matrixResult{}, err
		}
		t.Cleanup(func() { _ = addr.Close() })
		return matrixResult{addr: addr}, nil
	}},
	{"Dial", atDial, func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		var fleet [2]*ServerAddr
		for i := range fleet {
			addr, err := Serve(serveCluster(t, fx.sn), WithServiceNet(fx.sn), WithToken("alice", TokenQuota{}),
				Publish("train", sessionDataset{n: 64}, flatPipeline(time.Millisecond)))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = addr.Close() })
			fleet[i] = addr
		}
		fx.replica = fleet[1]
		rs, err := Dial(fleet[0], WithAuthToken("alice"), WithBatchSize(8), WithIterations(3), mk(fx))
		if err != nil {
			return matrixResult{}, err
		}
		drainRemote(t, rs)
		rep, err := rs.Close()
		return matrixResult{rs: rs, rep: rep}, err
	}},
	{"Resume", atResume, func(t *testing.T, fx *matrixFixture, mk func(*matrixFixture) Option) (matrixResult, error) {
		sess, err := Open(sessionDataset{n: 64}, WithEnv(EnvConfig{Cores: 8, GPUs: 4}),
			WithPipeline(flatPipeline(time.Millisecond)), WithBatchSize(8), WithIterations(6))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, err := range sess.Batches(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n == 2 {
				break
			}
		}
		ck, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ck.Close() })
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		resumed, err := Resume(ck, mk(fx))
		if err != nil {
			return matrixResult{}, err
		}
		return matrixResult{sess: resumed, cl: resumed.cl, rep: drain(t, resumed)}, nil
	}},
}

func matrixCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	cl, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// TestOptionScopeMatrix walks every exported option constructor × every entry
// point and holds each cell to exactly one of two outcomes: the entry point
// accepted the option and the result shows it, or it refused with a
// *ConfigError naming the constructor. Nothing is ignored. Which of the two is
// the constructor's declared scope against the entry the call resolves to —
// a Train handed WithNodes or WithTopology runs multi-node — and README.md's
// table says the same.
func TestOptionScopeMatrix(t *testing.T) {
	registerMatrix()
	scopes := map[string]entry{}
	for _, row := range matrixOptions {
		opt := row.mk(newMatrixFixture())
		scopes[opt.name] = opt.scope
		t.Run(opt.name, func(t *testing.T) {
			for _, ep := range matrixEntries {
				t.Run(ep.name, func(t *testing.T) {
					fx := newMatrixFixture()
					res, err := ep.call(t, fx, row.mk)
					at := ep.at
					if at == atTrain {
						at = trainEntry([]Option{opt}) // WithNodes/WithTopology run multi-node
					}
					var ce *ConfigError
					switch {
					case opt.scope&at == 0:
						if !errors.As(err, &ce) || ce.Option != opt.name {
							t.Fatalf("out of scope, but err = %v; want a *ConfigError for %s", err, opt.name)
						}
					case err != nil:
						t.Fatalf("in scope, but refused: %v", err)
					case row.seen != nil:
						row.seen(t, fx, at, res)
					}
				})
			}
		})
	}

	t.Run("every constructor is in the matrix", func(t *testing.T) {
		for _, name := range optionConstructors(t) {
			if _, ok := scopes[name]; !ok {
				t.Errorf("%s returns an Option and has no row in matrixOptions", name)
			}
		}
	})
	t.Run("README table", func(t *testing.T) {
		documented := readmeScopeTable(t)
		for name, scope := range scopes {
			if got, ok := documented[name]; !ok {
				t.Errorf("README.md's option table has no row for %s", name)
			} else if got != scope {
				t.Errorf("README.md says %s applies to %s; its scope is %s", name, got.names(), scope.names())
			}
		}
		for name := range documented {
			if _, ok := scopes[name]; !ok {
				t.Errorf("README.md documents %s, which is not an option constructor", name)
			}
		}
	})
}

// TestOptionConstructorsAllocateNothing: an Option carries its argument and
// its apply captures nothing, so a constructor of scalars, strings and
// pointers allocates nothing — the four Dial takes per stream included. The
// ones listed here keep a copy of a struct or an interface value they are
// handed, which is one allocation. Every row of matrixOptions is measured.
func TestOptionConstructorsAllocateNothing(t *testing.T) {
	copies := map[string]bool{
		"WithLoaderFactory": true, "WithLoaderConfig": true, "WithHardware": true, "WithEnv": true,
		"WithParams": true, "WithTopology": true, "WithChaos": true, "Publish": true, "WithToken": true,
	}
	fx := newMatrixFixture()
	var opt Option
	measured := map[string]bool{}
	for _, row := range matrixOptions {
		name := row.mk(fx).name
		measured[name] = true
		if copies[name] {
			continue
		}
		if got := testing.AllocsPerRun(100, func() { opt = row.mk(fx) }); got != 0 {
			t.Errorf("%s: %v allocations per call, want none", name, got)
		}
	}
	for name := range copies {
		if !measured[name] {
			t.Errorf("%s is listed as copying its argument but has no row in matrixOptions", name)
		}
	}
	_ = opt
}

// optionConstructors lists the exported functions of the package's non-test
// files that return an Option.
func optionConstructors(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["minato"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// readmeScopeTable parses README.md's option × entry-point table — the
// Markdown table whose header row starts with "| Option |" — into scopes.
func readmeScopeTable(t *testing.T) map[string]entry {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	cells := func(line string) []string {
		parts := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range parts {
			parts[i] = strings.Trim(strings.TrimSpace(parts[i]), "`")
		}
		return parts
	}
	lines := strings.Split(string(raw), "\n")
	head := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "| Option |") })
	if head < 0 {
		t.Fatal("README.md has no option × entry-point table")
	}
	var columns []entry
	for _, name := range cells(lines[head])[1:] {
		i := slices.IndexFunc(entryPoints[:], func(ep entryPoint) bool { return ep.name == name })
		if i < 0 {
			t.Fatalf("README.md's option table has a column %q that is no entry point", name)
		}
		columns = append(columns, entryPoints[i].at)
	}
	if len(columns) != len(entryPoints) {
		t.Fatalf("README.md's option table has %d entry-point columns, want %d", len(columns), len(entryPoints))
	}
	table := map[string]entry{}
	for _, line := range lines[head+2:] { // past the header and its rule
		if !strings.HasPrefix(line, "|") {
			break
		}
		row := cells(line)
		if len(row) != len(columns)+1 {
			t.Fatalf("README.md option table row %q has %d cells, want %d", line, len(row), len(columns)+1)
		}
		var scope entry
		for i, c := range row[1:] {
			if c != "" {
				scope |= columns[i]
			}
		}
		table[row[0]] = scope
	}
	return table
}

// TestBadHardwareIsConfigError: a testbed no device can be built from is
// refused at every entry that takes WithHardware, as a *ConfigError naming
// the option and the field, instead of crashing a kernel task (no GPU to
// split an epoch over, no core for the CPU device) or running on a disk
// that reads in zero time.
func TestBadHardwareIsConfigError(t *testing.T) {
	speech := SpeechWorkload(1, 0).WithIterations(4)
	bad := map[string]HardwareConfig{}
	cfg := ConfigA()
	bad["GPUCount"] = cfg.WithGPUs(0)
	cfg.Cores = 0
	bad["Cores"] = cfg
	cfg = ConfigA()
	cfg.StorageBandwidth = 0
	bad["StorageBandwidth"] = cfg
	entries := map[string]func(HardwareConfig) error{
		"Train": func(hw HardwareConfig) error {
			_, err := Train(speech, WithHardware(hw))
			return err
		},
		"Train (multi-node)": func(hw HardwareConfig) error {
			_, err := Train(speech, WithNodes(2), WithHardware(hw))
			return err
		},
		"NewCluster": func(hw HardwareConfig) error {
			cl, err := NewCluster(WithHardware(hw))
			if err == nil {
				cl.Close()
			}
			return err
		},
	}
	for field, hw := range bad {
		for entry, call := range entries {
			var ce *ConfigError
			if err := call(hw); !errors.As(err, &ce) || ce.Option != "WithHardware" || !strings.Contains(ce.Reason, field) {
				t.Errorf("%s with a bad %s: %v, want a *ConfigError naming WithHardware and %s", entry, field, err, field)
			}
		}
	}
}
