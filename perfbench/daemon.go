package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/cluster"
	"dramdig/internal/machine"
	"dramdig/internal/mapping"
	"dramdig/internal/store"
)

// Operation mix of daemon_mixed, as shares of all operations.
const (
	readShare   = 0.60 // GET /v1/mappings/{fp}
	cachedShare = 0.35 // re-POST of one Table II setting
	// The remaining 5% POST {"generated": 1} with a fresh seed. The
	// generator has 24 distinct definitions and the store keys on the
	// definition; set-up computes each one (see fillGenerated), so these
	// campaigns are served from the store.

	// Of the reads: plain 200 hits, If-None-Match revalidations (304),
	// and unknown fingerprints (404).
	read200Share = 0.80
	read304Share = 0.15

	// unknownFingerprints is how many unknown fingerprints the 404 reads
	// draw from. They repeat, so the store's negative-lookup cache serves
	// all but the first miss of each, as it would a client retrying.
	unknownFingerprints = 16

	// minDaemonSamples is the fewest campaign and read latencies a full
	// run needs for its p99s, counted in the slices the metrics come from.
	minDaemonSamples = 1000

	// generatorSeeds is how many campaign seeds set-up draws the
	// generator's definitions from; seeds 1 to 51 already yield all 24.
	generatorSeeds = 256

	// timelineEvery samples the scheduler wait from every Nth campaign
	// of a traced slice.
	timelineEvery = 10

	// rateSlice is the slice the host's steal share is read for and
	// runs_per_s takes its median over: a burst of host contention moves
	// the slices it falls in, not the rate, and slices short enough to
	// fall between bursts leave clean ones to measure from.
	rateSlice = 500 * time.Millisecond
)

// truthFingerprint is the ground-truth mapping fingerprint of a
// definition, computed from its declared functions and bit ranges.
func truthFingerprint(def machine.Definition) (string, error) {
	funcs, err := mapping.ParseFuncs(def.BankFuncs)
	if err != nil {
		return "", err
	}
	rows, err := mapping.ParseBitRanges(def.RowBits)
	if err != nil {
		return "", err
	}
	cols, err := mapping.ParseBitRanges(def.ColBits)
	if err != nil {
		return "", err
	}
	m, err := mapping.New(uint(bits.Len64(def.MemBytes)-1), funcs, rows, cols)
	if err != nil {
		return "", err
	}
	return m.Fingerprint(), nil
}

// --- daemon process ---------------------------------------------------------

type daemon struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	log    *os.File
	exited chan struct{}

	stopOnce sync.Once
	rssMB    float64
}

// running is the daemon a termination signal must stop (see main).
var running struct {
	sync.Mutex
	d *daemon
}

func setRunning(d *daemon) {
	running.Lock()
	running.d = d
	running.Unlock()
}

// stopRunning stops the tracked daemon, if any.
func stopRunning() {
	running.Lock()
	defer running.Unlock()
	if running.d != nil {
		running.d.stop()
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots dramdigd with defaults except on-disk cache and queue
// directories under dir, and returns once /v1/healthz answers.
func startDaemon(cfg config, client *http.Client, dir string) (*daemon, error) {
	bin, err := filepath.Abs(cfg.dramdigd)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("dramdigd binary: %w (build it with run.py)", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-cache-dir", filepath.Join(dir, "cache"), "-queue-dir", filepath.Join(dir, "queue"))
	cmd.Stdout, cmd.Stderr = logf, logf
	if cfg.trace {
		// dramdigd exports no dramdig_go_* families, so a traced run
		// reads the daemon's collections from the runtime's own trace.
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	// Should the benchmark die without stopping it, the daemon is sent
	// SIGTERM rather than left running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	setRunning(d)
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			d.log.Close()
			return nil, fmt.Errorf("dramdigd exited during start-up: %s", tail(filepath.Join(dir, "daemon.log")))
		default:
		}
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dramdigd did not become healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon gracefully, waits for it, and returns its
// peak resident set size in MB. Later calls return the same value.
func (d *daemon) stop() float64 {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.log.Close()
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.rssMB = float64(ru.Maxrss) / 1024
		}
	})
	return d.rssMB
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// --- HTTP helpers -------------------------------------------------------------

// submit POSTs a campaign and returns its ID and the POST's latency.
func submit(client *http.Client, base string, req cluster.CampaignRequest) (string, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	var created struct {
		ID string `json:"id"`
	}
	err = decodeBody(resp, http.StatusAccepted, &created)
	post := time.Since(t0)
	if err != nil {
		return "", post, fmt.Errorf("POST /v1/campaigns: %w", err)
	}
	return created.ID, post, nil
}

// terminal is what a campaign's event stream reported up to its final
// "done" event: the per-job outcome events and the terminal state.
type terminal struct {
	finished, failed []campaign.Event
	Status           string `json:"status"`
	Done             int    `json:"done"`
	Total            int    `json:"total"`
	Err              string `json:"err"`
}

// awaitTerminal reads the campaign's server-sent event stream until its
// final event. The stream replays earlier events, so nothing is missed,
// and the terminal state arrives without a client-side poll interval.
func awaitTerminal(client *http.Client, base, id string) (terminal, error) {
	var t terminal
	resp, err := client.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return t, fmt.Errorf("events of campaign %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "done":
			err := json.Unmarshal([]byte(data), &t)
			io.Copy(io.Discard, resp.Body)
			return t, err
		case string(campaign.EventJobFinished), string(campaign.EventJobFailed):
			var ev campaign.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return t, err
			}
			if ev.Kind == campaign.EventJobFinished {
				t.finished = append(t.finished, ev)
			} else {
				t.failed = append(t.failed, ev)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	return t, fmt.Errorf("event stream of campaign %s ended before its final event", id)
}

// decodeBody checks the status and decodes a JSON body, always draining
// it so the connection is reused.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return decodeData(resp.StatusCode, want, data, v)
}

// decodeData checks a response's status and decodes its JSON body.
func decodeData(status, want int, data []byte, v any) error {
	if status != want {
		return fmt.Errorf("status %d (want %d): %.200s", status, want, data)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

// --- workload -----------------------------------------------------------------

type opKind int

const (
	opRead200 opKind = iota
	opRead304
	opRead404
	opCached
	opGenerated
	numOpKinds
)

var opNames = [numOpKinds]string{"read_200", "read_304", "read_404", "campaign_cached", "campaign_generated"}

// daemonEnv is what every client shares: the daemon, the Table II
// expectations filled in set-up, and the result tallies.
type daemonEnv struct {
	cfg      config
	client   *http.Client
	base     string
	settings []setting
	fillSim  []float64 // per setting, as the set-up campaign reported it
	unknown  []string  // fingerprints no machine has, for the 404 reads

	traced atomic.Bool // set during traced slices of a traced run

	mu         sync.Mutex
	chk        *checker
	start      time.Time            // the window's start
	hostSlices []map[string]float64 // host CPU shares per rateSlice of the window
	sliceOps   [][2]int             // campaigns and reads completed per rateSlice
	lat        [numOpKinds][]sample
	posts      []time.Duration
	jobs       [2]int // campaign jobs finished in untraced / traced slices
	waits      []time.Duration
	spans      *spanLog
	campaigns  int
	reads      int
	computed   int // generated campaigns the daemon computed rather than served
}

// fillStore runs the set-up campaign over the nine Table II settings and
// verifies its report; it returns each setting's simulated seconds.
func fillStore(env *daemonEnv, master int64) ([]float64, error) {
	id, _, err := submit(env.client, env.base, cluster.CampaignRequest{Machines: []int{-1}, Seed: master})
	if err != nil {
		return nil, fmt.Errorf("set-up campaign: %w", err)
	}
	if _, err := awaitTerminal(env.client, env.base, id); err != nil {
		return nil, fmt.Errorf("set-up campaign: %w", err)
	}
	resp, err := env.client.Get(env.base + "/v1/campaigns/" + id)
	if err != nil {
		return nil, err
	}
	var st struct {
		Status string              `json:"status"`
		Report *cluster.ReportJSON `json:"report"`
		Err    string              `json:"err"`
	}
	if err := decodeBody(resp, http.StatusOK, &st); err != nil {
		return nil, fmt.Errorf("set-up campaign %s: %w", id, err)
	}
	if st.Status != "done" || st.Report == nil || len(st.Report.Jobs) != len(env.settings) {
		return nil, fmt.Errorf("set-up campaign %s: status %q, err %q", id, st.Status, st.Err)
	}
	sims := make([]float64, len(env.settings))
	for i, j := range st.Report.Jobs {
		s := env.settings[i]
		if !j.OK || !j.Match || j.MappingFingerprint != s.truthFP || j.MachineFingerprint != s.machineFP || j.SimSeconds <= 0 {
			return nil, fmt.Errorf("set-up campaign job %s: ok %v match %v mapping %s (want %s) machine %s (want %s): %s",
				j.Name, j.OK, j.Match, j.MappingFingerprint, s.truthFP, j.MachineFingerprint, s.machineFP, j.Err)
		}
		sims[i] = j.SimSeconds
	}
	return sims, nil
}

// fillGenerated computes every definition the machine generator draws,
// one {"generated": 1} campaign per distinct definition, and verifies
// each stored mapping. The window's generated campaigns are then served
// from the store; without this, the first seconds of every window would
// be spent computing these 24 machines.
func fillGenerated(env *daemonEnv) error {
	seen := map[string]bool{}
	var ids []string
	var defs []machine.Definition
	for seed := int64(1); seed <= generatorSeeds; seed++ {
		specs, err := campaign.GeneratedSpecs(1, seed)
		if err != nil {
			return err
		}
		if fp := specs[0].Def.Fingerprint(); !seen[fp] {
			seen[fp] = true
			id, _, err := submit(env.client, env.base, cluster.CampaignRequest{Generated: 1, Seed: seed})
			if err != nil {
				return fmt.Errorf("generated set-up campaign: %w", err)
			}
			ids = append(ids, id)
			defs = append(defs, specs[0].Def)
		}
	}
	for i, id := range ids {
		t, err := awaitTerminal(env.client, env.base, id)
		if err != nil {
			return fmt.Errorf("generated set-up campaign: %w", err)
		}
		if t.Status != "done" || len(t.finished) != 1 || !t.finished[0].Match {
			return fmt.Errorf("generated set-up campaign %s: status %q, %d finished, err %q", id, t.Status, len(t.finished), t.Err)
		}
		if err := env.checkStored(defs[i]); err != nil {
			return fmt.Errorf("generated set-up campaign %s: %w", id, err)
		}
	}
	return nil
}

// digest summarizes the set-up campaign's deterministic results.
func (env *daemonEnv) digest() string {
	var b bytes.Buffer
	for i, s := range env.settings {
		fmt.Fprintf(&b, "%s:%s:%v;", s.name, s.truthFP, env.fillSim[i])
	}
	return fmt.Sprintf("%x", sha256Sum(b.Bytes()))
}

// clientState is one closed-loop client's deterministic schedule.
type clientState struct {
	id          int
	rng         *rand.Rand
	tracedCamps int // campaigns started in traced slices
}

// next draws the client's next operation.
func (c *clientState) next() opKind {
	u := c.rng.Float64()
	switch {
	case u < readShare:
		v := c.rng.Float64()
		switch {
		case v < read200Share:
			return opRead200
		case v < read200Share+read304Share:
			return opRead304
		}
		return opRead404
	case u < readShare+cachedShare:
		return opCached
	}
	return opGenerated
}

// do performs and verifies one operation.
func (env *daemonEnv) do(c *clientState, kind opKind) {
	traced := env.traced.Load()
	t0 := time.Now()
	var err error
	var d, post, wait time.Duration
	jobs := 0
	switch kind {
	case opRead200, opRead304, opRead404:
		d, err = env.read(c, kind)
	case opCached, opGenerated:
		d, post, wait, err = env.campaign(c, kind, traced)
		if err == nil {
			jobs = 1
		}
	}

	env.mu.Lock()
	defer env.mu.Unlock()
	if kind >= opCached {
		env.campaigns++
	} else {
		env.reads++
	}
	if err != nil {
		env.chk.fail("%s: %v", opNames[kind], err)
		return
	}
	env.chk.pass()
	at := time.Since(env.start)
	env.lat[kind] = append(env.lat[kind], sample{at: at, lat: d})
	i := int(at / rateSlice)
	for len(env.sliceOps) <= i {
		env.sliceOps = append(env.sliceOps, [2]int{})
	}
	if kind >= opCached {
		env.sliceOps[i][0]++
	} else {
		env.sliceOps[i][1]++
	}
	if post > 0 {
		env.posts = append(env.posts, post)
	}
	if wait > 0 {
		env.waits = append(env.waits, wait)
	}
	mode := 0
	if traced {
		mode = 1
		env.spans.add(span{Name: opNames[kind], Start: t0, End: t0.Add(d), Parent: -1, Run: len(env.spans.spans)})
	}
	env.jobs[mode] += jobs
}

// read performs one mapping read. Its latency runs from sending the
// request until the whole response body has arrived; decoding and
// verifying the body come after.
func (env *daemonEnv) read(c *clientState, kind opKind) (time.Duration, error) {
	i := c.rng.Intn(len(env.settings))
	s := env.settings[i]
	fp := s.machineFP
	if kind == opRead404 {
		fp = env.unknown[c.rng.Intn(len(env.unknown))]
	}
	req, err := http.NewRequest(http.MethodGet, env.base+"/v1/mappings/"+fp, nil)
	if err != nil {
		return 0, err
	}
	if kind == opRead304 {
		req.Header.Set("If-None-Match", `"`+fp+`"`)
	}
	t0 := time.Now()
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, verifyRead(kind, fp, s.truthFP, resp, body)
}

// verifyRead checks a mapping read's status and body.
func verifyRead(kind opKind, fp, truthFP string, resp *http.Response, body []byte) error {
	switch kind {
	case opRead304:
		if err := decodeData(resp.StatusCode, http.StatusNotModified, body, nil); err != nil {
			return err
		}
		if got := resp.Header.Get("ETag"); got != `"`+fp+`"` {
			return fmt.Errorf("304 for %s carried ETag %q", fp, got)
		}
	case opRead404:
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := decodeData(resp.StatusCode, http.StatusNotFound, body, &e); err != nil {
			return err
		}
		if e.Error.Code != "not_found" {
			return fmt.Errorf("404 for %s has error code %q", fp, e.Error.Code)
		}
	default:
		var rec store.Record
		if err := decodeData(resp.StatusCode, http.StatusOK, body, &rec); err != nil {
			return err
		}
		if rec.Fingerprint != fp || !rec.Match || rec.Mapping == nil ||
			rec.MappingFingerprint != truthFP || rec.Mapping.Fingerprint() != truthFP {
			return fmt.Errorf("mapping %s: record for %s, mapping %s, match %v (want %s)",
				fp, rec.Fingerprint, rec.MappingFingerprint, rec.Match, truthFP)
		}
	}
	return nil
}

// campaign runs one Table II or generated campaign and verifies it. Its
// latency runs from the POST until the final event arrives on the
// campaign's event stream. The verdict comes from that stream (the job's
// match, cached flag and simulated seconds) and, for a generated machine,
// from the store: the daemon retains only its newest campaign states, so
// a campaign that finishes behind many newer ones may already be gone
// from GET /v1/campaigns/{id} when its final event arrives.
func (env *daemonEnv) campaign(c *clientState, kind opKind, traced bool) (lat, post, wait time.Duration, err error) {
	req := cluster.CampaignRequest{Seed: c.rng.Int63n(1<<40) + 1}
	setting := -1
	var gen campaign.Spec
	if kind == opCached {
		setting = c.rng.Intn(len(env.settings))
		req.Machines = []int{setting + 1}
	} else {
		req.Generated = 1
		specs, err := campaign.GeneratedSpecs(1, req.Seed)
		if err != nil {
			return 0, 0, 0, err
		}
		gen = specs[0]
	}
	t0 := time.Now()
	id, post, err := submit(env.client, env.base, req)
	if err != nil {
		return 0, post, 0, err
	}
	t, err := awaitTerminal(env.client, env.base, id)
	lat = time.Since(t0)
	if err != nil {
		return 0, post, 0, err
	}
	if t.Status != "done" || t.Done != 1 || t.Total != 1 || len(t.finished) != 1 || len(t.failed) != 0 {
		return 0, post, 0, fmt.Errorf("campaign %s: status %q, %d/%d jobs, %d finished, %d failed, err %q",
			id, t.Status, t.Done, t.Total, len(t.finished), len(t.failed), t.Err)
	}
	j := t.finished[0]
	if !j.Match {
		return 0, post, 0, fmt.Errorf("campaign %s job %s: recovered mapping does not match the ground truth", id, j.Job)
	}
	if kind == opCached {
		if !j.Cached || j.SimSeconds != env.fillSim[setting] {
			return 0, post, 0, fmt.Errorf("campaign %s job %s: cached %v sim_s %v (want cached, %v)",
				id, j.Job, j.Cached, j.SimSeconds, env.fillSim[setting])
		}
	} else {
		if err := env.checkStored(gen.Def); err != nil {
			return 0, post, 0, fmt.Errorf("campaign %s: %w", id, err)
		}
		if !j.Cached {
			env.mu.Lock()
			env.computed++
			env.mu.Unlock()
		}
	}
	if traced && kind == opCached {
		c.tracedCamps++
		// A counter, not the schedule's rng, picks the sampled
		// campaigns, so a traced run issues the same operations as an
		// untraced one. Cached campaigns finish in milliseconds, so
		// their state is still retained when the timeline is read.
		if c.tracedCamps%timelineEvery == 0 {
			if wait, err = env.schedulerWait(id); err != nil {
				return 0, post, 0, err
			}
		}
	}
	return lat, post, wait, nil
}

// checkStored verifies the store holds the ground-truth mapping of def.
func (env *daemonEnv) checkStored(def machine.Definition) error {
	want, err := truthFingerprint(def)
	if err != nil {
		return err
	}
	fp := def.Fingerprint()
	resp, err := env.client.Get(env.base + "/v1/mappings/" + fp)
	if err != nil {
		return err
	}
	var rec store.Record
	if err := decodeBody(resp, http.StatusOK, &rec); err != nil {
		return fmt.Errorf("mapping %s: %w", fp, err)
	}
	if !rec.Match || rec.Mapping == nil || rec.MappingFingerprint != want || rec.Mapping.Fingerprint() != want {
		return fmt.Errorf("mapping %s: stored %s, match %v (want %s)", fp, rec.MappingFingerprint, rec.Match, want)
	}
	return nil
}

// schedulerWait reads the campaign's queue.wait span (submitted until the
// scheduler started it) from its timeline.
func (env *daemonEnv) schedulerWait(id string) (time.Duration, error) {
	resp, err := env.client.Get(env.base + "/v1/campaigns/" + id + "/timeline")
	if err != nil {
		return 0, err
	}
	var tl struct {
		Events []struct {
			Type       string `json:"type"`
			Name       string `json:"name"`
			DurationNs int64  `json:"duration_ns"`
		} `json:"events"`
	}
	if err := decodeBody(resp, http.StatusOK, &tl); err != nil {
		return 0, fmt.Errorf("timeline %s: %w", id, err)
	}
	for _, e := range tl.Events {
		if e.Type == "span.end" && e.Name == "queue.wait" {
			// A zero wait is real; keep it distinguishable from "absent".
			return time.Duration(e.DurationNs) + 1, nil
		}
	}
	return 0, fmt.Errorf("timeline %s has no queue.wait span", id)
}

// scrape returns every sample of the daemon's /v1/metrics page, summed
// over label sets, keyed by sample name.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// gcLine matches a GODEBUG=gctrace=1 line; its first and third clock
// times are the two stop-the-world pauses of the collection.
var gcLine = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock`)

// gcTrace counts the collections the daemon logged between two offsets
// of its log and sums their pauses in seconds.
func gcTrace(path string, from, to int64) (runs int, pause float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if to > int64(len(data)) {
		to = int64(len(data))
	}
	for _, line := range strings.Split(string(data[min(from, to):to]), "\n") {
		m := gcLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		a, _ := strconv.ParseFloat(m[1], 64)
		b, _ := strconv.ParseFloat(m[2], 64)
		runs++
		pause += (a + b) / 1000
	}
	return runs, pause, nil
}

// runDaemonMixed drives a prebuilt dramdigd with a seeded closed-loop mix
// of mapping reads, cached Table II campaigns and generated-machine campaigns.
func runDaemonMixed(cfg config, chk *checker) (*report, map[string]any, error) {
	nclients := 2
	if n := runtime.NumCPU(); n < nclients {
		nclients = n
	}
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nclients + 1, // the clients plus the set-up/scrape caller
			MaxIdleConnsPerHost: nclients + 1,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	master := masterSeed(cfg.seed)
	env := &daemonEnv{cfg: cfg, client: client, chk: chk, spans: &spanLog{origin: time.Now()}}
	rng := rand.New(rand.NewSource(master))
	for len(env.unknown) < unknownFingerprints {
		env.unknown = append(env.unknown, fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()))
	}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	setups, err := timeSetups(cfg, func() error {
		if d != nil {
			d.stop()
			os.RemoveAll(d.dir)
			d = nil
		}
		env.settings = paperSettings(master)
		for i := range env.settings {
			fp, err := truthFingerprint(env.settings[i].def)
			if err != nil {
				return err
			}
			env.settings[i].truthFP = fp
		}
		var err error
		d, err = startDaemon(cfg, client, filepath.Join(cfg.outDir, fmt.Sprintf("daemon-seed%d", cfg.seed)))
		if err != nil {
			return err
		}
		env.base = d.base
		if env.fillSim, err = fillStore(env, master); err != nil {
			return err
		}
		return fillGenerated(env)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("daemon_mixed set-up: %w", err)
	}

	var before map[string]float64
	var log0, log1 int64
	logPath := filepath.Join(d.dir, "daemon.log")
	if cfg.trace {
		if before, err = scrape(client, env.base); err != nil {
			return nil, nil, err
		}
		log0 = fileSize(logPath)
	}
	elapsed, tracedTime := env.drive(nclients, master)
	var after map[string]float64
	if cfg.trace {
		if after, err = scrape(client, env.base); err != nil {
			return nil, nil, err
		}
		log1 = fileSize(logPath)
	}
	var gcRuns int
	var gcPause float64
	if cfg.trace {
		if gcRuns, gcPause, err = gcTrace(logPath, log0, log1); err != nil {
			return nil, nil, err
		}
	}
	rss := d.stop()
	// The daemon's request log runs to megabytes; keep it only when an
	// operation failed, for diagnosis.
	if chk.failed == 0 && !chk.broken {
		os.RemoveAll(d.dir)
	} else {
		os.RemoveAll(filepath.Join(d.dir, "cache"))
		os.RemoveAll(filepath.Join(d.dir, "queue"))
	}
	d = nil

	rep := newReport()
	keep, rates, kept := env.stealFilter(elapsed)
	var campaigns, reads []sample
	for k := opRead200; k < numOpKinds; k++ {
		for _, x := range env.lat[k] {
			if !keep(x.at) {
				continue
			}
			if k >= opCached {
				campaigns = append(campaigns, x)
			} else {
				reads = append(reads, x)
			}
		}
	}
	if !cfg.smoke && (len(campaigns) < minDaemonSamples || len(reads) < minDaemonSamples) {
		return nil, nil, fmt.Errorf("the window holds only %d campaign and %d read latencies (want ≥%d each)",
			len(campaigns), len(reads), minDaemonSamples)
	}
	jobs := env.jobs[0] + env.jobs[1]
	perOp := map[string]any{}
	for k := opRead200; k < numOpKinds; k++ {
		xs := latencies(env.lat[k])
		perOp[opNames[k]] = map[string]any{"n": len(xs), "p50_s": nearestRank(xs, 0.5), "p99_s": nearestRank(xs, 0.99)}
	}
	detail := map[string]any{
		"clients": nclients, "window_s": elapsed.Seconds(), "jobs": jobs, "jobs_per_s_overall": float64(jobs) / elapsed.Seconds(),
		"campaigns": env.campaigns, "reads": env.reads, "ops": perOp, "generated_computed": env.computed,
		"campaign_p99_s_overall": nearestRank(latencies(campaigns), 0.99), "read_p99_s_overall": nearestRank(latencies(reads), 0.99),
		"setup_s_samples": setups, "fill_sim_s": env.fillSim, "digest": env.digest(),
		"host_slices": env.hostSlices, "slice_rates": rates, "slices_kept": kept,
	}
	if !cfg.trace {
		rep.set("setup_s", median(setups), len(setups))
		rep.set("runs_per_s", median(rates), len(campaigns))
		sim := 0.0
		for _, s := range env.fillSim {
			sim += s
		}
		rep.set("sim_s_mean", sim/float64(len(env.fillSim)), len(env.fillSim))
		rep.set("peak_rss_mb", rss, 1)
		rep.set("campaign_p50_s", nearestRank(latencies(campaigns), 0.50), len(campaigns))
		rep.set("campaign_p99_s", chunkedQuantile(campaigns, 0.99, minDaemonSamples), len(campaigns))
		rep.set("read_p50_s", nearestRank(latencies(reads), 0.50), len(reads))
		rep.set("read_p99_s", chunkedQuantile(reads, 0.99, minDaemonSamples), len(reads))
		return rep, detail, nil
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	mean := func(family string) float64 {
		n := delta(family + "_count")
		if n <= 0 {
			return 0
		}
		return delta(family+"_sum") / n
	}
	rep.zero("machine.new_s", "source.open_s", "target.measure_pair_s", "target.measure_pair_ns",
		"trace.record_s", "trace.bytes", "trace.decode_s", "engine.run_s", "engine.glue_s")
	for _, p := range phases {
		rep.zero("core."+p+"_s", "core."+p+"_self_s", "core."+p+"_measurements", "core."+p+"_sim_s")
	}
	rep.set("target.measure_pair_calls", delta("dramdig_engine_samples_total"), 1)
	posts := durations(env.posts)
	rep.set("http.post_campaign_s", median(posts), len(posts))
	rep.set("queue.wal_append_s", mean("dramdig_wal_append_seconds"), int(delta("dramdig_wal_append_seconds_count")))
	rep.set("queue.wal_fsync_s", mean("dramdig_wal_fsync_seconds"), int(delta("dramdig_wal_fsync_seconds_count")))
	waits := durations(env.waits)
	rep.set("scheduler.wait_s", median(waits), len(waits))
	for k, name := range map[opKind]string{opRead200: "http.get_mapping_200_s", opRead304: "http.get_mapping_304_s", opRead404: "http.get_mapping_404_s"} {
		xs := latencies(env.lat[k])
		rep.set(name, median(xs), len(xs))
	}
	hits, misses := delta("dramdig_store_hits_total"), delta("dramdig_store_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rep.set("store.hit_ratio", ratio, int(hits+misses))
	rep.set("store.computes", delta("dramdig_store_computes_total"), 1)
	rep.set("store.disk_read_s", mean("dramdig_store_disk_read_seconds"), int(delta("dramdig_store_disk_read_seconds_count")))
	rep.set("store.disk_write_s", mean("dramdig_store_disk_write_seconds"), int(delta("dramdig_store_disk_write_seconds_count")))
	rep.set("store.negative_cache_hits", delta("dramdig_store_negative_cache_hits_total"), 1)
	rep.set("go.gc_runs", float64(gcRuns), 1)
	rep.set("go.gc_pause_s", gcPause, gcRuns)
	untracedTime := elapsed - tracedTime
	overhead := 0.0
	if tracedTime > 0 && untracedTime > 0 && env.jobs[0] > 0 {
		rpsU := float64(env.jobs[0]) / untracedTime.Seconds()
		rpsT := float64(env.jobs[1]) / tracedTime.Seconds()
		overhead = 1 - rpsT/rpsU
		detail["runs_per_s_untraced"], detail["runs_per_s_traced"] = rpsU, rpsT
	}
	rep.set("bench.tracing_overhead", overhead, jobs)
	detail["spans"] = len(env.spans.spans)
	if err := env.spans.write(cfg, "spans"); err != nil {
		return nil, nil, err
	}
	return rep, detail, nil
}

// stealFilter picks the part of the window the metrics come from: the
// rateSlice slices leastStolen picks (at least a third of them), then
// further slices, the least stolen first, until they hold
// minDaemonSamples campaign and read latencies each. A smoke run, or a
// window shorter than one slice, keeps every sample. It returns whether
// a sample completing at a given offset is kept, the campaign rate of
// each kept slice, and the kept slices' indices.
func (env *daemonEnv) stealFilter(elapsed time.Duration) (keep func(time.Duration) bool, rates []float64, kept []int) {
	var all []sample
	for k := opCached; k < numOpKinds; k++ {
		all = append(all, env.lat[k]...)
	}
	slices := sliceRates(all, elapsed, rateSlice)
	if n := len(env.hostSlices); n < len(slices) {
		slices = slices[:n]
	}
	if len(slices) == 0 || env.cfg.smoke {
		return func(time.Duration) bool { return true }, []float64{float64(len(all)) / elapsed.Seconds()}, nil
	}
	steal := make([]float64, len(slices))
	for i, h := range env.hostSlices[:len(slices)] {
		if h != nil {
			steal[i] = h["steal"]
		}
	}
	order, n := leastStolen(steal, max(1, len(slices)/3))
	campaigns, reads := 0, 0
	for k, i := range order {
		if k >= n && campaigns >= minDaemonSamples && reads >= minDaemonSamples {
			break
		}
		kept = append(kept, i)
		if i < len(env.sliceOps) {
			campaigns += env.sliceOps[i][0]
			reads += env.sliceOps[i][1]
		}
	}
	sort.Ints(kept)
	in := make([]bool, len(slices))
	for _, i := range kept {
		in[i] = true
		rates = append(rates, slices[i])
	}
	return func(at time.Duration) bool {
		i := int(at / rateSlice)
		return i < len(in) && in[i]
	}, rates, kept
}

// totals counts the campaigns and reads completed so far.
func (env *daemonEnv) totals() (campaigns, reads int) {
	env.mu.Lock()
	defer env.mu.Unlock()
	for _, n := range env.sliceOps {
		campaigns += n[0]
		reads += n[1]
	}
	return campaigns, reads
}

// drive runs the closed-loop clients for the window. In a traced run it
// alternates untraced and traced slices and returns the traced time.
func (env *daemonEnv) drive(nclients int, master int64) (elapsed, tracedTime time.Duration) {
	start := time.Now()
	env.mu.Lock()
	env.start = start
	env.mu.Unlock()
	window := env.cfg.window()
	hardStop := start.Add(2 * window)
	var stop atomic.Bool
	enough := func() bool {
		if env.cfg.smoke {
			return true
		}
		campaigns, reads := env.totals()
		return campaigns >= minDaemonSamples && reads >= minDaemonSamples
	}
	var wg sync.WaitGroup
	for i := 0; i < nclients; i++ {
		c := &clientState{id: i, rng: rand.New(rand.NewSource(master*31 + int64(i)))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				env.do(c, c.next())
			}
		}()
	}
	const slice = 250 * time.Millisecond
	var tracedSince time.Time
	ticks := cpuTicks()
	for {
		time.Sleep(10 * time.Millisecond)
		now := time.Now()
		if now.Sub(start) >= time.Duration(len(env.hostSlices)+1)*rateSlice {
			t := cpuTicks()
			shares := cpuShares(ticks, t)
			env.mu.Lock()
			env.hostSlices = append(env.hostSlices, shares)
			env.mu.Unlock()
			ticks = t
		}
		if env.cfg.trace {
			want := (now.Sub(start)/slice)%2 == 1
			if want != env.traced.Load() {
				if want {
					tracedSince = now
				} else {
					tracedTime += now.Sub(tracedSince)
				}
				env.traced.Store(want)
			}
		}
		if (now.Sub(start) >= window && enough()) || now.After(hardStop) {
			stop.Store(true)
			if env.traced.Load() {
				tracedTime += now.Sub(tracedSince)
			}
			break
		}
	}
	wg.Wait()
	return time.Since(start), tracedTime
}
