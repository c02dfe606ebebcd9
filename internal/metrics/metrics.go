// Package metrics is the simulator's one measurement layer: the streaming
// statistics every layer keeps (Welford mean/variance, exact percentile
// buffers for the paper's Table 2 style summaries, log-bucket histograms for
// step-time SLOs, EWMAs for MinatoLoader's worker scheduler, time series),
// the periodic sampler behind the paper's usage figures (CPU%, GPU%, disk
// read rate, throughput over time), and the writers that export them
// (Prometheus text, CSV).
//
// A Collector runs as a tracked task under the simtime runtime, sampling
// registered gauges at a fixed virtual-time interval — the analogue of the
// paper's nvidia-smi/dstat monitoring (§5.1). Like every layer on the
// kernel it is plain single-owner data: registered, started, stopped and
// read from the kernel's tasks.
package metrics

import (
	"context"
	"fmt"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// Collector samples gauges periodically into time series.
type Collector struct {
	rt       *simtime.Virtual
	interval time.Duration

	gauges  []func() float64
	series  []*TimeSeries // series[i] records gauges[i]
	stopped bool
}

// NewCollector returns a collector sampling every interval of virtual time.
func NewCollector(rt *simtime.Virtual, interval time.Duration) *Collector {
	return &Collector{rt: rt, interval: interval}
}

// Register adds a gauge. The function is called from the collector task
// only, so stateful window gauges (e.g. CounterRateGauge) need no guard.
// Registering after Stop returns an error: the sampling task has already
// exited, so the gauge would silently never be sampled.
func (c *Collector) Register(name string, fn func() float64) error {
	if c.stopped {
		return fmt.Errorf("metrics: Register(%q) after Stop: the sampling task has exited", name)
	}
	c.gauges = append(c.gauges, fn)
	c.series = append(c.series, &TimeSeries{Name: name})
	return nil
}

// Start launches the sampling task in wg. The task exits at the first tick
// after Stop is called.
func (c *Collector) Start(wg *simtime.WaitGroup) {
	wg.Go("metrics-collector", func() {
		for !c.stopped {
			if err := c.rt.Sleep(context.Background(), c.interval); err != nil || c.stopped {
				return
			}
			now := c.rt.Now()
			for i, fn := range c.gauges {
				c.series[i].Append(now, fn())
			}
		}
	})
}

// Stop ends sampling after the current tick.
func (c *Collector) Stop() { c.stopped = true }

// Series returns the recorded time series in registration order. They are
// the collector's own: read them once the sampling task has exited.
func (c *Collector) Series() []*TimeSeries { return c.series }

// CounterRateGauge builds a gauge reporting how fast a monotonic counter
// grows over the window since the previous sample: Δcounter / (scale·Δt),
// Δt in seconds of virtual time. Scale 1 gives a per-second rate (bytes
// read, bytes trained); a device's capacity turns busy unit-seconds into a
// utilization.
func CounterRateGauge(rt *simtime.Virtual, scale float64, counter func() float64) func() float64 {
	last := counter()
	lastT := rt.Now()
	return func() float64 {
		cur := counter()
		now := rt.Now()
		dt := (now - lastT).Seconds()
		var r float64
		if dt > 0 {
			r = (cur - last) / (scale * dt)
		}
		last, lastT = cur, now
		return r
	}
}
