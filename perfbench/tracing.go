package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dramdig/internal/addr"
	"dramdig/internal/core"
	"dramdig/internal/mapping"
	"dramdig/internal/source"
)

// measurePairEvery is how often, on average, the traced wrapper reads the
// clock around a MeasurePair call. A live call costs a few hundred
// nanoseconds, so two clock reads on every call would add several
// percent; every call is still counted. Which calls are timed comes from
// a hash of the call's index, not a fixed stride, so a pattern in the
// pipeline's calls (a slow first call of every batch) cannot alias with
// the sampling.
const measurePairEvery = 16

// timedCall reports whether the n-th MeasurePair call of a phase (from
// 1) is timed: the first, and about one in measurePairEvery after it.
func timedCall(n uint64) bool {
	z := n + 0x9e3779b97f4a7c15 // splitmix64
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return n == 1 || (z^(z>>31))%measurePairEvery == 0
}

// clockCost is the median time two clock reads around nothing take; it is
// subtracted from a phase's mean timed call, which the clock reads around
// the call inflate by about as much.
func clockCost() time.Duration {
	xs := make([]float64, 1001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// layerSample is one traced run's per-layer decomposition.
type layerSample struct {
	newDur, openDur, runDur time.Duration
	phaseWall               [5]time.Duration
	phaseMP                 [5]time.Duration // estimated MeasurePair time inside the phase
	phaseCalls              [5]uint64
	phaseMeas               [5]uint64
	phaseSim                [5]float64
	calls, callsInPhases    uint64
	mp                      time.Duration
	phasesSeen              int // WithProgress boundaries observed
}

func (l *layerSample) add(o *layerSample) {
	l.newDur += o.newDur
	l.openDur += o.openDur
	l.runDur += o.runDur
	for p := range phases {
		l.phaseWall[p] += o.phaseWall[p]
		l.phaseMP[p] += o.phaseMP[p]
		l.phaseCalls[p] += o.phaseCalls[p]
		l.phaseMeas[p] += o.phaseMeas[p]
		l.phaseSim[p] += o.phaseSim[p]
	}
	l.calls += o.calls
	l.callsInPhases += o.callsInPhases
	l.mp += o.mp
}

// phaseCounter is the MeasurePair tally of one phase: every call is
// counted, and the timed ones are kept.
type phaseCounter struct {
	calls uint64
	timed []time.Duration
}

// meanGroups is how many groups the median-of-means estimate deals a
// phase's timed calls into.
const meanGroups = 9

// estimate is the phase's MeasurePair time: its calls times the mean
// timed call, less the clock's own cost. The mean is a median of means:
// the timed calls are dealt round-robin into meanGroups groups and the
// median group mean is taken. A call preempted for milliseconds then
// moves one group, not the estimate, and the slow tail of the calls
// still counts. (A plain median drops that tail: the calls' times are
// bimodal, and on live runs calls × median missed the summed time of
// every call by up to 30%, where this estimate stays within a few
// percent.)
func (c *phaseCounter) estimate(clock time.Duration) time.Duration {
	var sum, n [meanGroups]float64
	for i, d := range c.timed {
		sum[i%meanGroups] += float64(d)
		n[i%meanGroups]++
	}
	var means []float64
	for g := range sum {
		if n[g] > 0 {
			means = append(means, sum[g]/n[g])
		}
	}
	per := max(0, median(means)-float64(clock))
	return time.Duration(per * float64(c.calls))
}

// runTracer times the layers of one pipeline run at a time from outside:
// it wraps the run's source (Open, MeasurePair) and listens to the
// engine's WithProgress phase boundaries. It is used by one goroutine.
type runTracer struct {
	clock time.Duration // clockCost, measured once
	spans *spanLog

	name      string
	runID     int
	opened    [2]time.Time // Open start and end
	mark      time.Time    // last phase boundary
	counters  [5]phaseCounter
	cur       phaseCounter // since the last boundary
	steps     [5]core.StepStats
	stepAt    [5][2]time.Time
	stepsSeen int

	sampledTotal uint64
}

func newRunTracer() *runTracer {
	return &runTracer{clock: clockCost(), spans: &spanLog{origin: time.Now()}}
}

// begin resets the per-run state.
func (t *runTracer) begin(name string) {
	t.name = name
	t.runID++
	t.counters = [5]phaseCounter{}
	t.cur = phaseCounter{}
	t.steps = [5]core.StepStats{}
	t.stepsSeen = 0
}

// wrap returns src with a timed Open whose runs count MeasurePair calls.
func (t *runTracer) wrap(src source.Source) source.Source {
	return timedSource{Source: src, tr: t}
}

// step is the engine.WithProgress callback: it closes the current phase.
func (t *runTracer) step(name string, stats core.StepStats) {
	now := time.Now()
	p := phaseIndex(name)
	if p < 0 {
		return
	}
	t.counters[p] = t.cur
	t.steps[p] = stats
	t.stepAt[p] = [2]time.Time{t.mark, now}
	t.stepsSeen++
	t.cur = phaseCounter{}
	t.mark = now
}

func phaseIndex(name string) int {
	for i, p := range phases {
		if p == name {
			return i
		}
	}
	return -1
}

// end closes the run: start is the run's start, engineStart when
// engine.Run was called, stop when it returned. It records the run's
// spans and returns its decomposition.
func (t *runTracer) end(start, engineStart, stop time.Time) *layerSample {
	l := &layerSample{
		newDur:     engineStart.Sub(start),
		openDur:    t.opened[1].Sub(t.opened[0]),
		runDur:     stop.Sub(engineStart),
		phasesSeen: t.stepsSeen,
	}
	root := t.spans.add(span{Name: "run", Start: start, End: stop, Parent: -1, Run: t.runID,
		Attrs: map[string]any{"setting": t.name}})
	if engineStart.After(start) {
		t.spans.add(span{Name: "machine.new", Start: start, End: engineStart, Parent: root, Run: t.runID})
	}
	engSpan := t.spans.add(span{Name: "engine.run", Start: engineStart, End: stop, Parent: root, Run: t.runID})
	t.spans.add(span{Name: "source.open", Start: t.opened[0], End: t.opened[1], Parent: engSpan, Run: t.runID})
	for p, name := range phases {
		c := &t.counters[p]
		t.sampledTotal += uint64(len(c.timed))
		l.phaseMP[p] = c.estimate(t.clock)
		l.phaseWall[p] = t.stepAt[p][1].Sub(t.stepAt[p][0])
		l.phaseCalls[p] = c.calls
		l.phaseMeas[p] = t.steps[p].Measurements
		l.phaseSim[p] = t.steps[p].SimSeconds
		l.callsInPhases += c.calls
		l.mp += l.phaseMP[p]
		t.spans.add(span{Name: "core." + name, Start: t.stepAt[p][0], End: t.stepAt[p][1], Parent: engSpan, Run: t.runID,
			Attrs: map[string]any{
				"measure_pair_calls": c.calls, "measure_pair_s": l.phaseMP[p].Seconds(),
				"measurements": t.steps[p].Measurements, "sim_s": t.steps[p].SimSeconds,
			}})
	}
	l.calls = l.callsInPhases + t.cur.calls // calls after the last phase, if any
	return l
}

// timedSource wraps a source so Open is timed and its runs are counted.
type timedSource struct {
	source.Source
	tr *runTracer
}

func (s timedSource) Open() (source.Run, error) {
	t0 := time.Now()
	r, err := s.Source.Open()
	t1 := time.Now()
	s.tr.opened = [2]time.Time{t0, t1}
	s.tr.mark = t1
	if err != nil {
		return nil, err
	}
	return &timedRun{Run: r, tr: s.tr}, nil
}

// timedRun counts every MeasurePair call and times those timedCall picks.
type timedRun struct {
	source.Run
	tr *runTracer
}

func (r *timedRun) MeasurePair(a, b addr.Phys, rounds int) float64 {
	c := &r.tr.cur
	c.calls++
	if !timedCall(c.calls) {
		return r.Run.MeasurePair(a, b, rounds)
	}
	t0 := time.Now()
	v := r.Run.MeasurePair(a, b, rounds)
	c.timed = append(c.timed, time.Since(t0))
	return v
}

// Truth forwards the wrapped run's ground truth, so verification works
// unchanged under tracing.
func (r *timedRun) Truth() *mapping.Mapping { return source.Truth(r.Run) }

// span is one recorded interval. Spans of one run share Run; Parent is
// the index of the causing span, -1 for a root.
type span struct {
	Name   string         `json:"name"`
	Start  time.Time      `json:"-"`
	End    time.Time      `json:"-"`
	Parent int            `json:"parent"`
	Run    int            `json:"run"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	// StartNs and EndNs are offsets from the log's origin.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(s span) int {
	s.StartNs = s.Start.Sub(l.origin).Nanoseconds()
	s.EndNs = s.End.Sub(l.origin).Nanoseconds()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// write stores the spans as JSON under the output directory.
func (l *spanLog) write(cfg config, kind string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-seed%d.json", kind, cfg.workload, cfg.seed)
	return os.WriteFile(filepath.Join(cfg.outDir, name), data, 0o644)
}

func sha256Sum(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}
