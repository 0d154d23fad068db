package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/core"
	"dramdig/internal/engine"
	"dramdig/internal/machine"
	"dramdig/internal/source"
	"dramdig/internal/store"
	"dramdig/internal/trace"
)

// setting is one Table II machine with the seeds a campaign job of the
// same master seed uses, so the library workloads and the daemon's
// set-up campaign run identical pipelines.
type setting struct {
	name        string
	def         machine.Definition
	machineFP   string
	machineSeed int64
	toolSeed    int64
	truthFP     string // ground-truth mapping fingerprint

	// replay_strict only: the recording and what the live recording
	// run recovered.
	trace *trace.Trace
	live  *core.Result
}

// masterSeed derives the Table II campaign seed from the workload seed.
// It is never 0, which the daemon would replace with its default.
func masterSeed(seed int64) int64 {
	return rand.New(rand.NewSource(seed)).Int63n(1<<40) + 1
}

// paperSettings mirrors campaign.PaperSpecs plus the attempt-0 tool seed
// campaign.Run derives for job idx (master + idx*7919).
func paperSettings(master int64) []setting {
	specs := campaign.PaperSpecs(master)
	out := make([]setting, len(specs))
	for i, sp := range specs {
		out[i] = setting{
			name:        sp.Name,
			def:         sp.Def,
			machineFP:   sp.Def.Fingerprint(),
			machineSeed: sp.Seed,
			toolSeed:    master + int64(i)*7919,
		}
	}
	return out
}

var eng engine.Engine

// runSample is one pipeline run as the benchmark saw it.
type runSample struct {
	total  time.Duration // the timed operation
	read   time.Duration // median store read of the run's mapping
	cycle  int           // index of its cycle within its mode
	res    *core.Result
	layers *layerSample // traced runs only
}

// libWorkload is a library workload: one goroutine runs the nine
// settings in order, cycle after cycle, and every cycle does identical
// work.
type libWorkload struct {
	cfg      config
	chk      *checker
	settings []setting
	// runOne performs and verifies one run; tr is nil when untraced.
	runOne func(st *setting, tr *runTracer) (runSample, bool)
	refs   []*fingerprintRef
}

// fingerprintRef holds the first run's deterministic quantities for a
// setting; every later run, traced or not, must reproduce them exactly.
type fingerprintRef struct {
	fp    string
	sim   float64
	meas  uint64
	steps map[string]core.StepStats
	calls uint64 // MeasurePair calls, from the first traced run
}

func (w *libWorkload) checkDeterminism(i int, s runSample) {
	st := &w.settings[i]
	res := s.res
	ref := w.refs[i]
	if ref == nil {
		ref = &fingerprintRef{fp: res.Mapping.Fingerprint(), sim: res.TotalSimSeconds,
			meas: res.Measurements, steps: res.Steps}
		w.refs[i] = ref
	}
	if fp := res.Mapping.Fingerprint(); fp != ref.fp {
		w.chk.violate("%s: fingerprint %s differs from first run's %s", st.name, fp, ref.fp)
	}
	if res.TotalSimSeconds != ref.sim || res.Measurements != ref.meas {
		w.chk.violate("%s: sim_s %v / measurements %d differ from first run's %v / %d",
			st.name, res.TotalSimSeconds, res.Measurements, ref.sim, ref.meas)
	}
	for _, p := range phases {
		if res.Steps[p] != ref.steps[p] {
			w.chk.violate("%s: step %s cost %+v differs from first run's %+v", st.name, p, res.Steps[p], ref.steps[p])
		}
	}
	if s.layers != nil {
		if s.layers.calls != res.Measurements {
			w.chk.violate("%s: wrapper counted %d MeasurePair calls, pipeline reports %d measurements",
				st.name, s.layers.calls, res.Measurements)
		}
		if ref.calls == 0 {
			ref.calls = s.layers.calls
		} else if s.layers.calls != ref.calls {
			w.chk.violate("%s: %d MeasurePair calls, first traced run made %d", st.name, s.layers.calls, ref.calls)
		}
	}
}

// cycleSamples are one mode's samples, indexed by setting.
type cycleSamples struct {
	runs   [][]runSample
	cycles int
	steal  []float64 // host steal share of each cycle
	least  int       // fewest cycles the medians come from
}

func newCycleSamples(n, least int) *cycleSamples {
	return &cycleSamples{runs: make([][]runSample, n), least: least}
}

// keptCycles marks the cycles the medians come from: those with host
// steal at most stealLimit, and at least a third of all cycles (and at
// least c.least), the least stolen first.
func (c *cycleSamples) keptCycles() []bool {
	order, n := leastStolen(c.steal, max(c.least, len(c.steal)/3))
	in := make([]bool, len(c.steal))
	for _, i := range order[:n] {
		in[i] = true
	}
	return in
}

// count is how many runs the medians come from.
func (c *cycleSamples) count() int {
	n := 0
	for i := range c.runs {
		n += len(c.kept(i))
	}
	return n
}

// kept returns the runs of setting i its medians come from: those of
// the kept cycles.
func (c *cycleSamples) kept(i int) []runSample {
	in := c.keptCycles()
	var out []runSample
	for _, r := range c.runs[i] {
		if in[r.cycle] {
			out = append(out, r)
		}
	}
	return out
}

// medianTotals returns each setting's median run time.
func (c *cycleSamples) medianTotals() []float64 {
	out := make([]float64, len(c.runs))
	for i := range c.runs {
		rs := c.kept(i)
		xs := make([]float64, len(rs))
		for k, r := range rs {
			xs[k] = r.total.Seconds()
		}
		out[i] = median(xs)
	}
	return out
}

func (c *cycleSamples) medianReads() []float64 {
	out := make([]float64, len(c.runs))
	for i := range c.runs {
		rs := c.kept(i)
		xs := make([]float64, len(rs))
		for k, r := range rs {
			xs[k] = r.read.Seconds()
		}
		out[i] = median(xs)
	}
	return out
}

// runsPerS is 9 / Σ median(seconds of setting i).
func (c *cycleSamples) runsPerS() float64 {
	sum := 0.0
	for _, m := range c.medianTotals() {
		sum += m
	}
	if sum == 0 {
		return 0
	}
	return float64(len(c.runs)) / sum
}

// cycle runs the nine settings once and records the share of the host's
// CPU time the hypervisor stole meanwhile (0 when it could not be read,
// and in a smoke run).
func (w *libWorkload) cycle(into *cycleSamples, tr *runTracer) {
	before := cpuTicks()
	var done []runSample
	var settings []int
	for i := range w.settings {
		s, ok := w.runOne(&w.settings[i], tr)
		if !ok {
			continue
		}
		w.checkDeterminism(i, s)
		done = append(done, s)
		settings = append(settings, i)
	}
	steal := 0.0
	if shares := cpuShares(before, cpuTicks()); shares != nil && !w.cfg.smoke {
		steal = shares["steal"]
	}
	for k, s := range done {
		s.cycle = into.cycles
		into.runs[settings[k]] = append(into.runs[settings[k]], s)
	}
	into.cycles++
	into.steal = append(into.steal, steal)
}

// minCycles keeps every per-setting median meaningful on short windows.
func (w *libWorkload) minCycles() int {
	if w.cfg.smoke {
		return 1
	}
	return 3
}

// measure runs whole cycles until the window has passed, with at least
// minCycles cycles per mode. Traced mode alternates untraced and traced
// cycles so both see the same host conditions; the untraced half gives
// the tracing overhead.
func (w *libWorkload) measure() (untraced, traced *cycleSamples, tr *runTracer, gcRuns uint32, gcPause time.Duration) {
	n := len(w.settings)
	untraced = newCycleSamples(n, w.minCycles())
	if w.cfg.trace {
		traced = newCycleSamples(n, w.minCycles())
		tr = newRunTracer()
	}
	enough := func() bool {
		return untraced.cycles >= w.minCycles() && (traced == nil || traced.cycles >= w.minCycles())
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for {
		w.cycle(untraced, nil)
		if traced != nil {
			w.cycle(traced, tr)
		}
		elapsed := time.Since(start)
		if elapsed >= w.cfg.window() && enough() {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	return untraced, traced, tr, ms1.NumGC - ms0.NumGC, time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
}

// endToEnd fills the untraced metrics common to both library workloads.
// The daemon-shaped latency metrics take their library meaning here: a
// campaign is one setting's run, a read is a store read of its mapping
// with the response encoding; both are nearest-rank percentiles
// over the nine per-setting medians, so one slow burst moves one sample.
func (w *libWorkload) endToEnd(rep *report, s *cycleSamples, setups []float64) map[string]any {
	runs := s.count()
	rep.set("setup_s", median(setups), len(setups))
	rep.set("runs_per_s", s.runsPerS(), runs)
	sim := 0.0
	for i := range w.settings {
		sim += w.refs[i].sim
	}
	rep.set("sim_s_mean", sim/float64(len(w.settings)), len(w.settings))
	rep.set("peak_rss_mb", peakRSSMB(), 1)
	totals, reads := s.medianTotals(), s.medianReads()
	rep.set("campaign_p50_s", nearestRank(totals, 0.50), runs)
	rep.set("campaign_p99_s", nearestRank(totals, 0.99), runs)
	rep.set("read_p50_s", nearestRank(reads, 0.50), runs)
	rep.set("read_p99_s", nearestRank(reads, 0.99), runs)

	per := map[string]any{}
	for i, st := range w.settings {
		xs := make([]float64, len(s.runs[i]))
		for k, r := range s.runs[i] {
			xs[k] = r.total.Seconds()
		}
		per[st.name] = map[string]any{
			"runs": len(xs), "runs_kept": len(s.kept(i)), "median_s": totals[i], "iqr_frac": relIQR(xs),
			"sim_s": w.refs[i].sim, "measurements": w.refs[i].meas, "fingerprint": w.refs[i].fp,
		}
	}
	return map[string]any{"cycles": s.cycles, "cycle_steal": s.steal, "cycles_kept": s.keptCycles(),
		"settings": per, "setup_s_samples": setups, "digest": w.digest()}
}

// digest summarizes every deterministic quantity of the run, so two runs
// of one seed (traced or not) can be compared by one string.
func (w *libWorkload) digest() string {
	var b bytes.Buffer
	for i, st := range w.settings {
		r := w.refs[i]
		if r == nil {
			fmt.Fprintf(&b, "%s:missing;", st.name)
			continue
		}
		fmt.Fprintf(&b, "%s:%s:%v:%d", st.name, r.fp, r.sim, r.meas)
		for _, p := range phases {
			fmt.Fprintf(&b, ":%d/%v", r.steps[p].Measurements, r.steps[p].SimSeconds)
		}
		b.WriteString(";")
	}
	return fmt.Sprintf("%x", sha256Sum(b.Bytes()))
}

// perLayer fills the traced metrics from each setting's median traced
// run (by run time), summed over the nine settings: one cycle's worth of
// per-layer cost, with the decomposition of each chosen run intact.
func (w *libWorkload) perLayer(rep *report, untraced, traced *cycleSamples, tr *runTracer, gcRuns uint32, gcPause time.Duration) map[string]any {
	var sum layerSample
	var phaseAcct []map[string]any
	for i := range w.settings {
		rs := traced.kept(i)
		if len(rs) == 0 {
			continue
		}
		sort.Slice(rs, func(a, b int) bool { return rs[a].total < rs[b].total })
		l := rs[(len(rs)-1)/2].layers
		w.checkAccounting(w.settings[i].name, l)
		sum.add(l)
		for p := range phases {
			phaseAcct = append(phaseAcct, map[string]any{
				"setting": w.settings[i].name, "phase": phases[p],
				"wall_s": l.phaseWall[p].Seconds(), "measure_pair_s": l.phaseMP[p].Seconds(),
				"self_s": (l.phaseWall[p] - l.phaseMP[p]).Seconds(),
			})
		}
	}
	runs := traced.count()
	rep.set("machine.new_s", sum.newDur.Seconds(), runs)
	rep.set("source.open_s", sum.openDur.Seconds(), runs)
	rep.set("target.measure_pair_calls", float64(sum.calls), runs)
	rep.set("target.measure_pair_s", sum.mp.Seconds(), int(tr.sampledTotal))
	ns := 0.0
	if sum.calls > 0 {
		ns = float64(sum.mp.Nanoseconds()) / float64(sum.calls)
	}
	rep.set("target.measure_pair_ns", ns, int(tr.sampledTotal))
	var phaseSum time.Duration
	for p, name := range phases {
		rep.set("core."+name+"_s", sum.phaseWall[p].Seconds(), runs)
		rep.set("core."+name+"_self_s", (sum.phaseWall[p] - sum.phaseMP[p]).Seconds(), runs)
		rep.set("core."+name+"_measurements", float64(sum.phaseMeas[p]), runs)
		rep.set("core."+name+"_sim_s", sum.phaseSim[p], runs)
		phaseSum += sum.phaseWall[p]
	}
	rep.set("engine.run_s", sum.runDur.Seconds(), runs)
	rep.set("engine.glue_s", (sum.runDur - sum.openDur - phaseSum).Seconds(), runs)
	rep.zero("http.post_campaign_s", "queue.wal_append_s", "queue.wal_fsync_s", "scheduler.wait_s",
		"http.get_mapping_200_s", "http.get_mapping_304_s", "http.get_mapping_404_s",
		"store.hit_ratio", "store.computes", "store.disk_read_s", "store.disk_write_s", "store.negative_cache_hits")
	rep.set("go.gc_runs", float64(gcRuns), 1)
	rep.set("go.gc_pause_s", gcPause.Seconds(), int(gcRuns))

	rpsU, rpsT := untraced.runsPerS(), traced.runsPerS()
	overhead := 0.0
	if rpsU > 0 {
		overhead = 1 - rpsT/rpsU
	}
	rep.set("bench.tracing_overhead", overhead, runs+untraced.count())
	return map[string]any{
		"cycles_traced": traced.cycles, "cycles_untraced": untraced.cycles,
		"cycle_steal_traced": traced.steal, "cycle_steal_untraced": untraced.steal,
		"runs_per_s_traced": rpsT, "runs_per_s_untraced": rpsU,
		"measure_pair_timed_every": measurePairEvery, "clock_cost_s": tr.clock.Seconds(), "phase_accounting": phaseAcct,
		"spans": len(tr.spans.spans), "digest": w.digest(),
	}
}

// checkAccounting verifies one traced run's decomposition: every
// MeasurePair call falls inside the phase whose StepStats count it, a
// phase's MeasurePair time is part of its wall time, and open plus the
// phases fit in the engine run.
func (w *libWorkload) checkAccounting(name string, l *layerSample) {
	if l.phasesSeen != len(phases) {
		w.chk.violate("%s: saw %d phase boundaries, want %d", name, l.phasesSeen, len(phases))
	}
	if l.callsInPhases != l.calls {
		w.chk.violate("%s: %d of %d MeasurePair calls fell outside any phase", name, l.calls-l.callsInPhases, l.calls)
	}
	inside := l.openDur
	for p := range phases {
		inside += l.phaseWall[p]
		if l.phaseCalls[p] != l.phaseMeas[p] {
			w.chk.violate("%s: phase %s made %d MeasurePair calls, its StepStats report %d measurements",
				name, phases[p], l.phaseCalls[p], l.phaseMeas[p])
		}
		if l.phaseMP[p] > l.phaseWall[p] {
			w.chk.violate("%s: phase %s MeasurePair time %v exceeds its wall time %v", name, phases[p], l.phaseMP[p], l.phaseWall[p])
		}
	}
	if inside > l.runDur {
		w.chk.violate("%s: open and phases take %v of a %v engine run", name, inside, l.runDur)
	}
}

// timeSetups runs set-up reps times and returns each duration; the last
// set-up's state is what the measured window uses.
func timeSetups(cfg config, fn func() error) ([]float64, error) {
	var out []float64
	for k := 0; k < cfg.setupReps(); k++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// readReps is how many times each run's mapping read repeats; the run
// contributes the median, so a microsecond-scale sample is not one clock
// reading.
const readReps = 16

// mappingReads is the program's read path for a mapping, as GET
// /v1/mappings/{fp} runs it on a hit: Store.Get, then the response
// encoding the daemon's writeJSON does. The store holds each setting's
// verified record, put on the setting's first verified run.
type mappingReads struct {
	st     *store.Store
	stored map[string]bool
	buf    bytes.Buffer
}

func newMappingReads() (*mappingReads, error) {
	st, err := store.Open(store.Config{})
	if err != nil {
		return nil, err
	}
	return &mappingReads{st: st, stored: map[string]bool{}}, nil
}

// read times readReps reads of the setting's record and verifies each
// response outside the timed part; it returns the median time.
func (m *mappingReads) read(st *setting, res *core.Result, fp string) (time.Duration, error) {
	if !m.stored[st.machineFP] {
		err := m.st.Put(&store.Record{
			Fingerprint: st.machineFP, MachineName: st.name, Mapping: res.Mapping,
			MappingFingerprint: fp, Match: true, SimSeconds: res.TotalSimSeconds, Measurements: res.Measurements,
		})
		if err != nil {
			return 0, err
		}
		m.stored[st.machineFP] = true
	}
	times := make([]float64, readReps)
	for k := range times {
		m.buf.Reset()
		t0 := time.Now()
		rec, ok, err := m.st.Get(st.machineFP)
		if err == nil && ok {
			enc := json.NewEncoder(&m.buf)
			enc.SetIndent("", "  ")
			err = enc.Encode(rec)
		}
		times[k] = time.Since(t0).Seconds()
		if err != nil || !ok {
			return 0, fmt.Errorf("store read of %s: found %v, %v", st.machineFP, ok, err)
		}
		var back store.Record
		if err := json.Unmarshal(m.buf.Bytes(), &back); err != nil {
			return 0, err
		}
		if back.Fingerprint != st.machineFP || back.MappingFingerprint != fp || back.Mapping == nil || back.Mapping.Fingerprint() != fp {
			return 0, fmt.Errorf("store read of %s returned mapping %s (want %s)", st.machineFP, back.MappingFingerprint, fp)
		}
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

// --- paper_live ---------------------------------------------------------

// runPaperLive runs the nine Table II settings live, each on a fresh
// machine.New, exactly as a campaign job does.
func runPaperLive(cfg config, chk *checker) (*report, map[string]any, error) {
	master := masterSeed(cfg.seed)
	var sts []setting
	setups, err := timeSetups(cfg, func() error {
		// Set-up derives the inputs and builds each machine once for
		// its ground truth, the reference every run is verified against.
		sts = paperSettings(master)
		for i := range sts {
			m, err := machine.New(sts[i].def, sts[i].machineSeed)
			if err != nil {
				return err
			}
			sts[i].truthFP = m.Truth().Fingerprint()
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("paper_live set-up: %w", err)
	}
	reads, err := newMappingReads()
	if err != nil {
		return nil, nil, err
	}
	w := &libWorkload{cfg: cfg, chk: chk, settings: sts, refs: make([]*fingerprintRef, len(sts))}
	w.runOne = func(st *setting, tr *runTracer) (runSample, bool) {
		if tr != nil {
			tr.begin(st.name)
		}
		t0 := time.Now()
		m, err := machine.New(st.def, st.machineSeed)
		if err != nil {
			chk.fail("%s: machine.New: %v", st.name, err)
			return runSample{}, false
		}
		var src source.Source = source.Live(m)
		opts := []engine.Option{engine.WithSeed(st.toolSeed)}
		t1 := time.Now()
		if tr != nil {
			src = tr.wrap(src)
			opts = append(opts, engine.WithProgress(tr.step))
		}
		res, err := eng.Run(context.Background(), src, opts...)
		t2 := time.Now()
		if err != nil {
			chk.fail("%s: live run: %v", st.name, err)
			return runSample{}, false
		}
		fp := res.Mapping.Fingerprint()
		if !res.Mapping.EquivalentTo(m.Truth()) || fp != st.truthFP {
			chk.fail("%s: recovered mapping %s does not match ground truth %s", st.name, fp, st.truthFP)
			return runSample{}, false
		}
		read, err := reads.read(st, res, fp)
		if err != nil {
			chk.fail("%s: %v", st.name, err)
			return runSample{}, false
		}
		chk.pass()
		s := runSample{total: t2.Sub(t0), read: read, res: res}
		if tr != nil {
			s.layers = tr.end(t0, t1, t2)
		}
		return s, true
	}
	return finishLibrary(w, setups, nil)
}

// finishLibrary measures and reports a library workload.
func finishLibrary(w *libWorkload, setups []float64, codec *codecStats) (*report, map[string]any, error) {
	untraced, traced, tr, gcRuns, gcPause := w.measure()
	rep := newReport()
	for i := range w.settings {
		if w.refs[i] == nil {
			return nil, nil, fmt.Errorf("%s never completed a verified run", w.settings[i].name)
		}
	}
	if !w.cfg.trace {
		return rep, w.endToEnd(rep, untraced, setups), nil
	}
	detail := w.perLayer(rep, untraced, traced, tr, gcRuns, gcPause)
	if codec != nil {
		rep.set("trace.record_s", codec.RecordS, len(setups))
		rep.set("trace.bytes", float64(codec.Bytes), len(w.settings))
		rep.set("trace.decode_s", codec.DecodeS, len(setups))
		detail["codec"] = codec
	} else {
		rep.zero("trace.record_s", "trace.bytes", "trace.decode_s")
	}
	if err := tr.spans.write(w.cfg, "spans"); err != nil {
		return nil, nil, err
	}
	return rep, detail, nil
}

// --- replay_strict --------------------------------------------------------

// codecStats is the trace codec's share of replay_strict's set-up: the
// nine live recording runs, the encoded size, and the decode.
type codecStats struct {
	RecordS float64 `json:"record_s"`
	Bytes   int     `json:"bytes"`
	DecodeS float64 `json:"decode_s"`
}

// runReplayStrict records the nine settings live once during set-up,
// decodes each recording once, and then measures strict replays of them.
func runReplayStrict(cfg config, chk *checker) (*report, map[string]any, error) {
	master := masterSeed(cfg.seed)
	var sts []setting
	var recS, decS []float64
	var nbytes int
	setups, err := timeSetups(cfg, func() error {
		sts = nil // drop the previous set-up's recordings first
		runtime.GC()
		sts = paperSettings(master)
		var rec, dec time.Duration
		nbytes = 0
		for i := range sts {
			st := &sts[i]
			m, err := machine.New(st.def, st.machineSeed)
			if err != nil {
				return err
			}
			st.truthFP = m.Truth().Fingerprint()
			var buf bytes.Buffer
			t0 := time.Now()
			res, err := eng.Run(context.Background(), source.Live(m),
				engine.WithSeed(st.toolSeed), engine.WithTraceSink(&buf))
			rec += time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s: recording run: %w", st.name, err)
			}
			if fp := res.Mapping.Fingerprint(); fp != st.truthFP {
				return fmt.Errorf("%s: recording run recovered %s, ground truth is %s", st.name, fp, st.truthFP)
			}
			nbytes += buf.Len()
			t1 := time.Now()
			t, err := trace.Decode(&buf)
			dec += time.Since(t1)
			if err != nil {
				return fmt.Errorf("%s: decode: %w", st.name, err)
			}
			st.trace, st.live = t, res
		}
		recS = append(recS, rec.Seconds())
		decS = append(decS, dec.Seconds())
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("replay_strict set-up: %w", err)
	}
	reads, err := newMappingReads()
	if err != nil {
		return nil, nil, err
	}
	w := &libWorkload{cfg: cfg, chk: chk, settings: sts, refs: make([]*fingerprintRef, len(sts))}
	w.runOne = func(st *setting, tr *runTracer) (runSample, bool) {
		if tr != nil {
			tr.begin(st.name)
		}
		t0 := time.Now()
		var src source.Source = source.FromTrace(st.trace, trace.Strict)
		opts := []engine.Option{engine.WithSeed(st.trace.Header.ToolSeed)}
		if tr != nil {
			src = tr.wrap(src)
			opts = append(opts, engine.WithProgress(tr.step))
		}
		res, err := eng.Run(context.Background(), src, opts...)
		t1 := time.Now()
		if err != nil {
			chk.fail("%s: strict replay: %v", st.name, err)
			return runSample{}, false
		}
		fp := res.Mapping.Fingerprint()
		if fp != st.truthFP || res.TotalSimSeconds != st.live.TotalSimSeconds || res.Measurements != st.live.Measurements {
			chk.fail("%s: replay recovered %s (%v sim s, %d measurements), recording run recovered %s (%v, %d)",
				st.name, fp, res.TotalSimSeconds, res.Measurements, st.truthFP, st.live.TotalSimSeconds, st.live.Measurements)
			return runSample{}, false
		}
		read, err := reads.read(st, res, fp)
		if err != nil {
			chk.fail("%s: %v", st.name, err)
			return runSample{}, false
		}
		chk.pass()
		s := runSample{total: t1.Sub(t0), read: read, res: res}
		if tr != nil {
			s.layers = tr.end(t0, t0, t1)
		}
		return s, true
	}
	codec := &codecStats{RecordS: median(recS), DecodeS: median(decS), Bytes: nbytes}
	return finishLibrary(w, setups, codec)
}
