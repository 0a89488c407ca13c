package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/obs"
	"dpiservice/internal/wire"
)

// telemetryEvery is dpinstance's config-refresh interval: short enough
// that a churn push is applied within a run. Every other daemon flag is
// left at its production default. Each refresh re-fetches the whole
// configuration and sorts the flow table, stalling results for a few
// milliseconds; at 1 s those stalls alone set result_p99_us and made it
// swing by a factor of four between runs. At 5 s the stalls touch well under 1% of packets.
const telemetryEvery = "5s"

// daemon is one started process of the deployment.
type daemon struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	err  error // valid after done is closed
}

func startDaemon(dir, name, bin string, args ...string) (*daemon, error) {
	logPath := filepath.Join(dir, name+".log")
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// A daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		f.Close()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	if d.exited() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// deployment is the running dpictl + mboxd + dpinstance chain and the
// generator's wire session to the instance.
type deployment struct {
	dir                       string
	ctl, ids, inst            *daemon
	ctlAddr, instDbg, mboxDbg string
	instWire, mboxWire        string
	tag                       uint16
	client                    *controller.Client
	conn                      *wire.Conn
	setup                     time.Duration
	httpc                     *http.Client
	daemons                   []*daemon
}

// deploy starts the whole chain and the generator's session; the
// returned setup time runs from launching dpictl until the instance is
// healthy and the wire handshake is done. onResult is installed on the
// session before the handshake.
func deploy(ctx context.Context, bins, dir string, in *inputs, onResult func(uint32, []byte)) (*deployment, error) {
	ports, err := freePorts(7)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		dir:      dir,
		ctlAddr:  hostPort(ports[0]),
		mboxWire: hostPort(ports[1]),
		mboxDbg:  hostPort(ports[2]),
		instWire: hostPort(ports[3]),
		instDbg:  hostPort(ports[4]),
		httpc:    &http.Client{Timeout: 5 * time.Second},
	}
	instData, ctlDbg := hostPort(ports[5]), hostPort(ports[6])
	bin := func(name string) string { return filepath.Join(bins, name) }
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}

	start := time.Now()
	if d.ctl, err = d.start("dpictl", bin("dpictl"), "-listen", d.ctlAddr, "-debug-addr", ctlDbg); err != nil {
		return fail(err)
	}
	if err := d.waitTCP(ctx, d.ctlAddr, d.ctl); err != nil {
		return fail(err)
	}
	// The firewall registers and pushes its rules, then exits; the IDS
	// reports the chain and stays as the verdict consumer.
	fw, err := d.start("mboxd-fw", bin("mboxd"), "-controller", d.ctlAddr,
		"-id", fwID, "-type", fwType, "-rules", in.fwFile)
	if err != nil {
		return fail(err)
	}
	if err := d.waitExit(ctx, fw); err != nil {
		return fail(err)
	}
	if d.ids, err = d.start("mboxd-ids", bin("mboxd"), "-controller", d.ctlAddr,
		"-id", idsID, "-type", idsType, "-rules", in.idsFile, "-readonly",
		"-chain", fwID+","+idsID, "-listen", d.mboxWire, "-debug-addr", d.mboxDbg); err != nil {
		return fail(err)
	}
	if err := d.waitHealthy(ctx, d.mboxDbg, d.ids); err != nil {
		return fail(err)
	}
	if d.inst, err = d.start("dpinstance", bin("dpinstance"), "-controller", d.ctlAddr,
		"-id", "dpi-1", "-data", instData, "-listen", d.instWire, "-verdicts", d.mboxWire,
		"-debug-addr", d.instDbg, "-telemetry", telemetryEvery); err != nil {
		return fail(err)
	}
	if err := d.waitHealthy(ctx, d.instDbg, d.inst); err != nil {
		return fail(err)
	}
	if d.client, err = controller.Dial(d.ctlAddr); err != nil {
		return fail(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	token, err := d.client.NewSession(cctx, "perfbench")
	cancel()
	if err != nil {
		return fail(fmt.Errorf("session token: %w", err))
	}
	tr, err := wire.DialUDP(d.instWire)
	if err != nil {
		return fail(err)
	}
	d.conn = wire.NewConn(tr, token, "perfbench", wire.Config{}, nil)
	d.conn.OnResult(onResult)
	if err := d.conn.Start(10 * time.Second); err != nil {
		return fail(fmt.Errorf("wire handshake: %w", err))
	}
	d.setup = time.Since(start)

	if d.tag, err = chainTag(d.ids.log); err != nil {
		return fail(err)
	}
	return d, nil
}

func (d *deployment) start(name, bin string, args ...string) (*daemon, error) {
	dm, err := startDaemon(d.dir, name, bin, args...)
	if err != nil {
		return nil, err
	}
	d.daemons = append(d.daemons, dm)
	return dm, nil
}

// stop ends the session and every daemon, and waits for them.
func (d *deployment) stop() {
	if d.conn != nil {
		d.conn.Close()
		d.conn = nil
	}
	if d.client != nil {
		d.client.Close()
		d.client = nil
	}
	for i := len(d.daemons) - 1; i >= 0; i-- {
		d.daemons[i].stop()
	}
	d.httpc.CloseIdleConnections()
}

// dumpFlight saves each daemon's /flight and /trace windows next to the
// logs, for a failed run.
func (d *deployment) dumpFlight() {
	for _, t := range []struct{ name, addr string }{{"dpinstance", d.instDbg}, {"mboxd-ids", d.mboxDbg}} {
		for _, ep := range []string{"flight", "trace"} {
			if body, err := d.get(t.addr, "/"+ep); err == nil {
				_ = os.WriteFile(filepath.Join(d.dir, t.name+"."+ep+".json"), body, 0o644)
			}
		}
	}
}

const pollEvery = 2 * time.Millisecond

func (d *deployment) waitTCP(ctx context.Context, addr string, dm *daemon) error {
	return poll(ctx, dm, func() bool {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
}

func (d *deployment) waitHealthy(ctx context.Context, addr string, dm *daemon) error {
	return poll(ctx, dm, func() bool {
		resp, err := d.httpc.Get("http://" + addr + "/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

func (d *deployment) waitExit(ctx context.Context, dm *daemon) error {
	select {
	case <-dm.done:
		if dm.err != nil {
			return fmt.Errorf("%s: %v (see %s)", dm.name, dm.err, dm.log)
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s did not finish within 60s", dm.name)
	}
}

// poll waits for ready() while dm stays up.
func poll(ctx context.Context, dm *daemon, ready func() bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for !ready() {
		if dm.exited() {
			return fmt.Errorf("%s exited during start-up: %v (see %s)", dm.name, dm.err, dm.log)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 60s (see %s)", dm.name, dm.log)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
	}
	return nil
}

var tagLine = regexp.MustCompile(`assigned tag (\d+)`)

// chainTag reads the chain tag the controller assigned from mboxd's log.
func chainTag(logPath string) (uint16, error) {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return 0, err
	}
	m := tagLine.FindSubmatch(b)
	if m == nil {
		return 0, fmt.Errorf("no chain tag in %s", logPath)
	}
	tag, err := strconv.ParseUint(string(m[1]), 10, 16)
	return uint16(tag), err
}

func (d *deployment) get(addr, path string) ([]byte, error) {
	resp, err := d.httpc.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return body, nil
}

// metrics scrapes a daemon's /metrics registry snapshot.
func (d *deployment) metrics(addr string) (*obs.Snapshot, error) {
	body, err := d.get(addr, "/metrics")
	if err != nil {
		return nil, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &s, nil
}

// instancePatterns reads the merged pattern count dpinstance reports on
// /healthz; it changes when a pushed update has been applied.
func (d *deployment) instancePatterns() (int, error) {
	body, err := d.get(d.instDbg, "/healthz")
	if err != nil {
		return 0, err
	}
	var h struct {
		Details struct {
			Patterns int `json:"patterns"`
		} `json:"details"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, err
	}
	return h.Details.Patterns, nil
}

// freePorts reserves n distinct loopback ports free for both TCP and
// UDP, then releases them for the daemons to bind.
func freePorts(n int) ([]int, error) {
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	var ports []int
	for len(ports) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		closers = append(closers, ln)
		port := ln.Addr().(*net.TCPAddr).Port
		pc, err := net.ListenPacket("udp", hostPort(port))
		if err != nil {
			continue
		}
		closers = append(closers, pc)
		ports = append(ports, port)
	}
	return ports, nil
}

func hostPort(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }

// procCPU returns the CPU time a process's threads have run, summed
// from each thread's /proc schedstat, which counts nanoseconds; the
// utime/stime of /proc stat are sampled per 10 ms tick and drift by
// several percent over a run.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat: %w", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat:
// all ticks, and the ticks the hypervisor ran other guests on this
// machine's CPUs (steal).
func hostTicks() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// procHWM returns a process's peak resident set size in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
