package netsim

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// fuzzCase is a fabric scenario: flows that start at given instants and
// enter the fabric a latency later, some cancelled in their latency or
// mid-flight, and bandwidth changes. Every instant is a whole nanosecond, as
// on the kernel's clock.
type fuzzCase struct {
	endpoints int
	bw        float64
	latency   time.Duration
	flows     []fuzzFlow
	bws       []fuzzBW
}

type fuzzFlow struct {
	src, dst      int
	size          int64
	start, cancel time.Duration // cancel 0: never
}

type fuzzBW struct {
	endpoint int
	bw       float64
	at       time.Duration
}

// decodeFuzzCase reads a scenario from fuzz bytes: the endpoint count and
// the latency (0, or a prime number of nanoseconds, one below and one above
// the shortest cancel delay), then records of five bytes, each a flow (op 0–5), a cancel of an earlier flow
// (op 6) or a bandwidth change (op 7). Sizes and instants are spread so a
// run lasts seconds. The bandwidth is a prime number of bytes per second,
// so a completion seldom falls exactly on a whole nanosecond: there the
// exact instant is a tie that float rounding may break either way in
// either model, and a chain of such ties would add up nanoseconds.
func decodeFuzzCase(data []byte) fuzzCase {
	c := fuzzCase{endpoints: 2, bw: 999_999_937}
	if len(data) > 0 {
		c.endpoints += int(data[0] % 7)
		c.latency = [3]time.Duration{0, 1_000_003, 9_999_991}[data[0]/7%3]
		data = data[1:]
	}
	for ; len(data) >= 5 && len(c.flows) < 24; data = data[5:] {
		op, a, b, x, y := data[0]%8, int(data[1]), int(data[2]), int64(data[3]), time.Duration(data[4])
		switch {
		case op < 6:
			src := a % c.endpoints
			c.flows = append(c.flows, fuzzFlow{src: src, dst: (src + 1 + b%(c.endpoints-1)) % c.endpoints,
				size: (1 + x) * 3_999_991, start: y * 7_777_777})
		case op == 6 && len(c.flows) > 0:
			fl := &c.flows[a%len(c.flows)]
			fl.cancel = fl.start + (1+y)*3_333_331
		case op == 7 && len(c.bws) < 8:
			c.bws = append(c.bws, fuzzBW{endpoint: a % c.endpoints,
				bw: c.bw * [4]float64{0.25, 0.5, 1, 2}[b%4], at: y * 9_999_991})
		}
	}
	return c
}

// fuzzResult is what a run shows: each flow's end instant and whether it
// was cancelled, the bytes moved, and every link's busy integral.
type fuzzResult struct {
	end       []time.Duration
	cancelled []bool
	moved     int64
	busy      []float64
}

// referenceFabric is the plain per-flow fluid model on the kernel's
// nanosecond clock, quadratic and obviously right: at every event it
// recomputes max-min rates by textbook water-filling (fix the flows of the
// one tightest link, repeat), finds the next event — a flow's entry, its
// start plus the latency; a cancel, which moves no bytes before the entry; a
// bandwidth change; or a flow's completion at the first nanosecond after its
// bytes run out — and advances every flow and link to it.
func referenceFabric(c fuzzCase) fuzzResult {
	n, nl := len(c.flows), 2*c.endpoints
	res := fuzzResult{end: make([]time.Duration, n), cancelled: make([]bool, n), busy: make([]float64, nl)}
	bw := make([]float64, nl)
	for i := range bw {
		bw[i] = c.bw
	}
	rem := make([]float64, n)
	rate := make([]float64, n)
	const idle, live, over = 0, 1, 2
	state := make([]int, n)
	applied := make([]bool, len(c.bws))
	links := func(i int) [2]int { return [2]int{2 * c.flows[i].src, 2*c.flows[i].dst + 1} }
	var now time.Duration
	for {
		// Water-filling.
		capLeft := append([]float64(nil), bw...)
		fixed := make([]bool, n)
		for {
			best, share := -1, math.Inf(1)
			for l := range nl {
				k := 0
				for i := range n {
					if state[i] == live && !fixed[i] && (links(i)[0] == l || links(i)[1] == l) {
						k++
					}
				}
				if k > 0 && capLeft[l]/float64(k) < share {
					best, share = l, capLeft[l]/float64(k)
				}
			}
			if best < 0 {
				break
			}
			for i := range n {
				if ls := links(i); state[i] == live && !fixed[i] && (ls[0] == best || ls[1] == best) {
					fixed[i], rate[i] = true, share
					capLeft[ls[0]] -= share
					capLeft[ls[1]] -= share
				}
			}
		}
		// The next event.
		next := time.Duration(math.MaxInt64)
		for i, fl := range c.flows {
			switch {
			case state[i] == idle && fl.start+c.latency >= now:
				next = min(next, fl.start+c.latency)
			case state[i] == live:
				next = min(next, now+time.Duration(rem[i]/rate[i]*1e9)+1)
			}
			if state[i] != over && fl.cancel > now {
				next = min(next, fl.cancel)
			}
		}
		for j, b := range c.bws {
			if !applied[j] {
				next = min(next, b.at)
			}
		}
		if next == math.MaxInt64 {
			return res
		}
		// Advance, then apply what happens at next: completions, cancels,
		// bandwidth changes, starts.
		dt := (next - now).Seconds()
		for i := range n {
			if state[i] == live {
				for _, l := range links(i) {
					res.busy[l] += rate[i] / bw[l] * dt
				}
				if next >= now+time.Duration(rem[i]/rate[i]*1e9)+1 {
					rem[i] = 0
				} else {
					rem[i] -= rate[i] * dt
				}
			}
		}
		now = next
		for i, fl := range c.flows {
			if state[i] == live && rem[i] == 0 {
				state[i], res.end[i] = over, now
				res.moved += fl.size
			}
			if fl.cancel > 0 && fl.cancel == now && state[i] != over {
				if state[i] == live {
					res.moved += fl.size - int64(max(rem[i], 0))
				}
				state[i], res.end[i], res.cancelled[i] = over, now, true
			}
		}
		for j, b := range c.bws {
			if b.at == now {
				bw[2*b.endpoint], bw[2*b.endpoint+1] = b.bw, b.bw
				applied[j] = true
			}
		}
		for i, fl := range c.flows {
			if state[i] == idle && fl.start+c.latency == now {
				state[i], rem[i] = live, float64(fl.size)
			}
		}
	}
}

// runFabric plays the scenario on a Fabric, one task per flow, cancel and
// bandwidth change.
func runFabric(c fuzzCase) fuzzResult {
	n := len(c.flows)
	res := fuzzResult{end: make([]time.Duration, n), cancelled: make([]bool, n), busy: make([]float64, 2*c.endpoints)}
	bg := context.Background()
	k := simtime.NewVirtual()
	k.Run(func() {
		f := New(k, Config{Endpoints: c.endpoints, Bandwidth: c.bw, Latency: c.latency})
		scopes := make([]simtime.CancelScope, n)
		wg := simtime.NewWaitGroup(k)
		for i, fl := range c.flows {
			ctx := scopes[i].Begin(k, bg)
			if fl.cancel > 0 {
				wg.Go("cancel", func() {
					_ = k.Sleep(bg, fl.cancel)
					scopes[i].Cancel()
				})
			}
			wg.Go("flow", func() {
				_ = k.Sleep(bg, fl.start)
				err := f.Transfer(ctx, fl.src, fl.dst, fl.size)
				res.end[i], res.cancelled[i] = k.Now(), err != nil
			})
		}
		for _, b := range c.bws {
			wg.Go("bandwidth", func() {
				_ = k.Sleep(bg, b.at)
				f.SetBandwidth(b.endpoint, b.bw)
			})
		}
		_ = wg.Wait(bg)
		res.moved = f.BytesMoved()
		for l := range res.busy {
			res.busy[l] = f.LinkBusySeconds(l/2, l%2)
		}
	})
	return res
}

// checkAgainstReference compares a fabric run with the reference model:
// each end instant within max(2 ns, 1e-9 relative), the same flows
// cancelled, the bytes moved exact but for what cancelled flows carried in
// the nanoseconds allowed, and the busy integrals to 1e-9 relative plus what
// the end instants' tolerance can move.
func checkAgainstReference(t *testing.T, c fuzzCase) {
	t.Helper()
	got, want := runFabric(c), referenceFabric(c)
	slackBytes := int64(0)
	// jitter is the busy time per link that the end instants' tolerance
	// covers: the exact instant of a completion can fall on a whole
	// nanosecond, where rounding puts each model on either side of it.
	jitter := make([]float64, len(got.busy))
	for i, fl := range c.flows {
		tol := max(2*time.Nanosecond, time.Duration(1e-9*float64(want.end[i])))
		jitter[2*fl.src] += tol.Seconds()
		jitter[2*fl.dst+1] += tol.Seconds()
		// A flow that completes at its cancel instant may come out as either.
		tie := fl.cancel > 0 && abs(want.end[i]-fl.cancel) <= tol
		if d := got.end[i] - want.end[i]; abs(d) > tol || got.cancelled[i] != want.cancelled[i] && !tie {
			t.Errorf("flow %d %+v ended at %v (cancelled %v), reference %v (cancelled %v)",
				i, fl, got.end[i], got.cancelled[i], want.end[i], want.cancelled[i])
		}
		if fl.cancel > 0 {
			slackBytes += 1 + int64(4*c.bw*2e-9)
		}
	}
	if abs(got.moved-want.moved) > slackBytes {
		t.Errorf("BytesMoved %d, reference %d", got.moved, want.moved)
	}
	for l := range got.busy {
		if d := math.Abs(got.busy[l] - want.busy[l]); d > 1e-9*max(got.busy[l], want.busy[l])+jitter[l] {
			t.Errorf("link %d busy %.17g s, reference %.17g s", l, got.busy[l], want.busy[l])
		}
	}
}

// FuzzFabric holds the fabric — group integrals, component-local
// water-filling, front-only timers — to the per-flow reference. The seed
// corpus runs with the tests; `go test -run '^$' -fuzz FuzzFabric
// ./internal/netsim/` searches for more.
func FuzzFabric(f *testing.F) {
	for _, seed := range []string{
		"\x00\x00\x00\x00\x10\x00",                                                             // one flow
		"\x01\x00\x00\x00\x10\x00\x00\x00\x01\x20\x00",                                         // two flows, one egress
		"\x02\x00\x00\x00\x40\x00\x00\x00\x01\x40\x03\x00\x01\x00\x40\x05",                     // a late flow on a shared egress
		"\x03\x00\x00\x00\x80\x00\x01\x01\x00\x80\x00\x02\x03\x00\x80\x00\x07\x02\x00\x00\x10", // ring-like, one NIC degraded
		"\x04\x00\x00\x00\xff\x00\x00\x00\x01\xff\x00\x06\x00\x00\x00\x08",                     // a cancel mid-flight
		"\x06\x00\x00\x00\x20\x00\x01\x02\x00\x20\x00\x02\x04\x00\x20\x00\x03\x06\x00\x20\x00\x07\x00\x03\x00\x04\x07\x00\x02\x00\x09",
		"\x05\x00\x00\x00\x30\x00\x00\x00\x01\x30\x01\x00\x00\x02\x30\x02\x00\x00\x03\x30\x03\x01\x01\x00\x30\x00\x07\x00\x00\x00\x05\x06\x02\x00\x00\x02",
		// With latency: each flow enters the fabric its latency after it starts.
		"\x07\x00\x00\x00\x10\x00", // one flow, 1 ms latency
		"\x0f\x00\x00\x00\x40\x00\x00\x00\x01\x40\x03\x00\x01\x00\x40\x05",                     // a late flow on a shared egress, 10 ms latency
		"\x0e\x00\x00\x00\x80\x00\x01\x00\x00\x40\x00\x06\x00\x00\x00\x01",                     // a cancel within the latency
		"\x0e\x00\x00\x00\x80\x00\x01\x00\x00\x40\x00\x06\x00\x00\x00\x02",                     // a cancel 2 ns after the entry
		"\x0b\x00\x00\x00\xff\x00\x00\x00\x01\xff\x00\x06\x00\x00\x00\x08\x07\x01\x00\x00\x01", // 1 ms latency, a cancel mid-flight and a degraded NIC
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, decodeFuzzCase(data))
	})
}

func abs[T int64 | time.Duration](x T) T { return max(x, -x) }
