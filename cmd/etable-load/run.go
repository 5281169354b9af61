package main

// The HTTP run: a real etable-server child process driven closed-loop
// over loopback by numClients clients, one keep-alive connection each.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverSpec is how one workload boots its child server.
type serverSpec struct {
	bin      string
	snapshot string
	runDir   string // scratch for spill files and the server log
	workload string
	smoke    bool
}

const (
	memLimitInMemory  = "1GiB"
	memLimitOutOfCore = "256MiB"
)

// outOfCore reports whether the workload serves from the paged,
// spilling tier.
func outOfCore(workload string) bool { return workload == wlOutOfCore }

// flags returns the server's command line (without -addr) and its
// GOMEMLIMIT.
func (s serverSpec) flags() ([]string, string) {
	args := []string{"-snapshot", s.snapshot, "-cache", fmt.Sprint(srvCacheEntries),
		"-page-size", fmt.Sprint(studyPageSize), "-max-sessions", fmt.Sprint(srvMaxSessions)}
	if !outOfCore(s.workload) {
		return args, memLimitInMemory
	}
	// 18 column sections behind an 8-section pool; results past the row
	// cap spill. The smoke corpus is 19 times smaller, so its cap is
	// scaled down to keep spills happening.
	maxRows := 5000
	if s.smoke {
		maxRows = 300
	}
	return append(args, "-lazy", "-pager-sections", "8", "-max-rows", fmt.Sprint(maxRows),
		"-spill-dir", filepath.Join(s.runDir, "spill"), "-max-spill-bytes", "268435456"), memLimitOutOfCore
}

// child is a running etable-server.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// exited is closed once the process has been reaped; waitErr is
	// valid after that.
	exited   chan struct{}
	waitErr  error
	stopOnce sync.Once
	boot     time.Duration // exec → first 200 on /api/v1/schema
}

const bootDeadline = 60 * time.Second

// startServer execs the server on a free loopback port, in its own
// process group, and waits for /api/v1/schema to answer.
func startServer(ctx context.Context, spec serverSpec) (*child, error) {
	// Reserve a port by binding it, then hand it to the child.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	// The server does not create its spill directory.
	if err := os.MkdirAll(filepath.Join(spec.runDir, "spill"), 0o755); err != nil {
		return nil, err
	}
	args, memLimit := spec.flags()
	cmd := exec.Command(spec.bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(),
		fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()), "GOMEMLIMIT="+memLimit, "TMPDIR="+spec.runDir)
	logFile, err := os.OpenFile(filepath.Join(spec.runDir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// A process group of its own, so that whatever the server may spawn
	// dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", spec.bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()

	probe := &http.Client{Timeout: 2 * time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(c.base + "/api/v1/schema")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.boot = time.Since(start)
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("server exited during boot: %v (see %s)", c.waitErr, logFile.Name())
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > bootDeadline {
			c.stop()
			return nil, fmt.Errorf("server did not answer /api/v1/schema within %s (see %s)", bootDeadline, logFile.Name())
		}
	}
}

// stop kills the server's process group and waits until it is reaped.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		// ESRCH (already gone) is the only failure and needs no handling.
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	})
	<-c.exited
}

// dead reports whether the server has exited on its own.
func (c *child) dead() bool {
	select {
	case <-c.exited:
		return true
	default:
		return false
	}
}

func (c *child) stats() (counters, error) { return fetchStats(c.base) }

// fetchStats reads a server's /api/v1/stats counters.
func fetchStats(base string) (counters, error) {
	resp, err := http.Get(base + "/api/v1/stats")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return counters{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return counters{}, fmt.Errorf("GET /api/v1/stats: status %d", resp.StatusCode)
	}
	return parseStats(body)
}

// sample is one executed request.
type sample struct {
	req    *request
	client int
	start  time.Time
	dur    time.Duration // request write → last body byte
	bytes  int
	err    error // transport error, non-2xx, or oracle mismatch
}

// loadClient is one closed-loop client: its own transport, hence its
// own single keep-alive connection.
type loadClient struct {
	id   int
	base string
	hc   *http.Client
	sid  int64
	// buf is reused for every response body: the scanner copies out
	// what outlives the request.
	buf bytes.Buffer
}

func newLoadClient(id int, base string) *loadClient {
	return &loadClient{id: id, base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

// do executes one request. The clock stops at the last body byte;
// verification against the oracle happens after that.
func (c *loadClient) do(r *request) sample {
	s := sample{req: r, client: c.id}
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	hr, err := http.NewRequest(r.Method, c.base+withSession(r.Path, c.sid), body)
	if err != nil {
		s.err = err
		return s
	}
	s.start = time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		s.dur, s.err = time.Since(s.start), err
		return s
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	s.dur = time.Since(s.start)
	resp.Body.Close()
	s.bytes = c.buf.Len()
	if err != nil {
		s.err = err
		return s
	}
	v, err := verify(r, resp.StatusCode, c.buf.Bytes())
	if err != nil {
		s.err = err
	}
	if v != nil && r.Kind == "create" {
		c.sid = v.ID
	}
	return s
}

// play executes reqs in order, stopping at a script boundary once the
// deadline has passed (zero deadline: never). It returns the samples
// and the number of requests left unexecuted.
func (c *loadClient) play(reqs []request, deadline time.Time) ([]sample, int) {
	out := make([]sample, 0, len(reqs))
	for i := range reqs {
		if !deadline.IsZero() && (i == 0 || reqs[i].Task != reqs[i-1].Task) && time.Now().After(deadline) {
			return out, len(reqs) - i
		}
		out = append(out, c.do(&reqs[i]))
	}
	return out, 0
}

// playAll runs every client over its slice of the lists concurrently
// and returns the samples per client.
func playAll(clients []*loadClient, lists [][]request, deadline time.Time) (samples [][]sample, skipped int) {
	samples = make([][]sample, len(clients))
	left := make([]int, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[i], left[i] = c.play(lists[i], deadline)
		}()
	}
	wg.Wait()
	for _, n := range left {
		skipped += n
	}
	return samples, skipped
}

// bootResult is what one boot of the server measured: its set-up, and
// its share of the sampled lists.
type bootResult struct {
	setupS  float64 // exec → schema 200 → warm-up list done
	warm    [][]sample
	sampled [][]sample
	skipped int
	wall    []time.Duration // per client: wall time of its chunk
	cpu     time.Duration   // server CPU over the chunk
	cpuErr  error
	rssMB   float64 // VmHWM when the chunk ended
	rssErr  error
	delta   counters // /api/v1/stats growth over the chunk
	final   counters
}

// requests counts the chunk's executed requests.
func (b *bootResult) requests() (n int) {
	for _, ss := range b.sampled {
		n += len(ss)
	}
	return n
}

// httpResult is everything one HTTP run measured.
type httpResult struct {
	boots []bootResult
	// loadgenCPU is the harness's own CPU over the sampled chunks, for
	// the envelope: it shares the host's cores with the server.
	loadgenCPU time.Duration
	flags      []string
	memLimit   string
}

// cutoffFactor bounds the sampled part at this multiple of --seconds:
// lists are count-based, so a slower commit takes longer, but never
// unboundedly so. Requests past the cut-off are skipped, not failed.
const cutoffFactor = 3

// freshSession reports whether reqs[i] starts a session that owes
// nothing to the requests before it: a create that is not the second
// step of a history hand-over. A list can be cut there and the rest
// played against another server.
func freshSession(reqs []request, i int) bool {
	return reqs[i].Kind == "create" && (i == 0 || reqs[i-1].Kind != "history")
}

// splitChunks cuts a sampled list into n consecutive chunks of about
// equal length, each after the first starting on a fresh session. A
// list with too few sessions yields empty trailing chunks.
func splitChunks(reqs []request, n int) [][]request {
	chunks := make([][]request, 0, n)
	start := 0
	for c := 1; c < n; c++ {
		cut := len(reqs)
		for i := max(c*len(reqs)/n, start+1); i < len(reqs); i++ {
			if freshSession(reqs, i) {
				cut = i
				break
			}
		}
		chunks = append(chunks, reqs[start:cut])
		start = cut
	}
	return append(chunks, reqs[start:])
}

// runHTTP boots the server `boots` times. Every boot runs the warm-up
// lists (boot + warm-up is one sample of setup_s) and then its own
// chunk of the sampled lists, so that one disturbed boot — a noisy
// neighbour, an unlucky heap — moves a third of the samples and one of
// three per-boot rates, not the whole run.
func runHTTP(ctx context.Context, spec serverSpec, lists [][]request, seconds float64, boots int) (*httpResult, error) {
	res := &httpResult{}
	res.flags, res.memLimit = spec.flags()
	warmLists := make([][]request, len(lists))
	chunks := make([][][]request, len(lists)) // [client][boot]
	for i, l := range lists {
		b := warmBoundary(l)
		warmLists[i], chunks[i] = l[:b], splitChunks(l[b:], boots)
	}
	for b := 0; b < boots; b++ {
		srv, err := startServer(ctx, spec)
		if err != nil {
			return nil, err
		}
		br, err := func() (bootResult, error) {
			defer srv.stop()
			// A cancelled run (SIGINT/SIGTERM) takes the server down at
			// once; the clients then fail fast on a closed port.
			defer context.AfterFunc(ctx, srv.stop)()
			clients := make([]*loadClient, len(lists))
			chunk := make([][]request, len(lists))
			for i := range clients {
				clients[i] = newLoadClient(i, srv.base)
				defer clients[i].hc.CloseIdleConnections()
				chunk[i] = chunks[i][b]
			}
			var br bootResult
			warmStart := time.Now()
			br.warm, _ = playAll(clients, warmLists, time.Time{})
			br.setupS = (srv.boot + time.Since(warmStart)).Seconds()

			before, err := srv.stats()
			if err != nil {
				return br, err
			}
			cpu0, cpuErr := procCPU(srv.cmd.Process.Pid)
			self0, _ := procCPU(os.Getpid()) // envelope only: unavailable reads as 0
			start := time.Now()
			deadline := start.Add(time.Duration(cutoffFactor * seconds / float64(boots) * float64(time.Second)))
			br.sampled, br.skipped = playAll(clients, chunk, deadline)
			for _, ss := range br.sampled {
				var wall time.Duration
				if n := len(ss); n > 0 {
					wall = ss[n-1].start.Add(ss[n-1].dur).Sub(start)
				}
				br.wall = append(br.wall, wall)
			}
			cpu1, cpuErr1 := procCPU(srv.cmd.Process.Pid)
			self1, _ := procCPU(os.Getpid())
			res.loadgenCPU += self1 - self0
			br.cpu, br.cpuErr = cpu1-cpu0, errors.Join(cpuErr, cpuErr1)
			br.rssMB, br.rssErr = procPeakRSS(srv.cmd.Process.Pid)
			if err := failIfDead(srv, spec); err != nil {
				return br, err
			}
			if br.final, err = srv.stats(); err != nil {
				return br, err
			}
			br.delta = br.final.sub(before)
			return br, nil
		}()
		if ctx.Err() != nil {
			return nil, fmt.Errorf("interrupted: %w", ctx.Err())
		}
		if err != nil {
			return nil, err
		}
		res.boots = append(res.boots, br)
	}
	return res, nil
}

func failIfDead(srv *child, spec serverSpec) error {
	if !srv.dead() {
		return nil
	}
	tail, _ := os.ReadFile(filepath.Join(spec.runDir, "server.log"))
	if len(tail) > 2000 {
		tail = tail[len(tail)-2000:]
	}
	return fmt.Errorf("server died during the run: %v\n%s", srv.waitErr, bytes.TrimSpace(tail))
}
