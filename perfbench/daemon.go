package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ferret/internal/protocol"
)

// daemon is one running ferretd process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string
	started   time.Time
	exited    chan struct{}
	log       *os.File
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches ferretd on dir with its default flags plus the
// deployment settings (-dir, -addr, -debug-addr) and the workload's -type.
func startDaemon(binary, dir, logPath string, flags []string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	debugAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-dir", dir, "-addr", addr, "-debug-addr", debugAddr}, flags...)
	cmd := exec.Command(binary, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The kernel kills ferretd if this process dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, debugAddr: debugAddr, exited: make(chan struct{}), log: logFile}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting ferretd: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitFirstAnswer polls until ferretd answers a query for key over
// protocol v2, then returns that moment.
func (d *daemon) waitFirstAnswer(key string, k int, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("ferretd exited during start-up (see %s)", d.log.Name())
		default:
		}
		c, err := d.dial()
		if err == nil {
			_, err = c.Query(key, protocol.QueryParams{K: k})
			c.Close()
			if err == nil {
				return time.Now(), nil
			}
		}
		last = err
		time.Sleep(5 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("ferretd gave no answer within %v: %v", timeout, last)
}

// dial opens a protocol v2 connection.
func (d *daemon) dial() (*protocol.Client, error) {
	c, err := protocol.DialTimeout(d.addr, time.Second)
	if err != nil {
		return nil, err
	}
	if err := c.UpgradeV2(); err != nil {
		c.Close()
		return nil, fmt.Errorf("protocol v2 upgrade: %w", err)
	}
	c.SetTimeout(60 * time.Second)
	return c, nil
}

// stop sends SIGTERM, waits for the drain, and kills ferretd if it has not
// exited within grace.
func (d *daemon) stop(grace time.Duration) {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// peakRSSMB reads ferretd's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

func (d *daemon) getJSON(path string, v any) error {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + d.debugAddr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// vars is one /debug/vars snapshot: the registry's flat series plus the
// Go runtime's memstats, stamped with the time it was taken.
type vars struct {
	at     time.Time
	series map[string]float64
	gcFrac float64 // memstats.GCCPUFraction (since process start)
	heapMB float64 // memstats.HeapAlloc in MiB
}

// wireBufPairs are the STATS pairs scrape adds to a snapshot: the wire
// buffer pool's counters, which /debug/vars publishes only as of the last
// STATS or TELEMETRY reply.
var wireBufPairs = []string{"wire_buf_gets_total", "wire_buf_misses_total"}

// scrape takes a snapshot of /debug/vars plus the STATS pairs in
// wireBufPairs, read over c.
func (d *daemon) scrape(c *protocol.Client) (vars, error) {
	var raw map[string]json.RawMessage
	at := time.Now()
	stats, err := c.Stats()
	if err != nil {
		return vars{}, fmt.Errorf("STATS: %w", err)
	}
	if err := d.getJSON("/debug/vars", &raw); err != nil {
		return vars{}, err
	}
	v := vars{at: at, series: map[string]float64{}}
	for _, name := range wireBufPairs {
		f, err := strconv.ParseFloat(stats[name], 64)
		if err != nil {
			return vars{}, fmt.Errorf("STATS %s: %w", name, err)
		}
		v.series[name] = f
	}
	for name, msg := range raw {
		switch name {
		case "memstats":
			var ms struct {
				GCCPUFraction float64
				HeapAlloc     uint64
			}
			if err := json.Unmarshal(msg, &ms); err != nil {
				return vars{}, fmt.Errorf("memstats: %w", err)
			}
			v.gcFrac = ms.GCCPUFraction
			v.heapMB = float64(ms.HeapAlloc) / (1 << 20)
		default:
			var f float64
			if json.Unmarshal(msg, &f) == nil {
				v.series[name] = f
			}
		}
	}
	return v, nil
}

// retainedTraces decodes the /debug/traces listing: the tracer's recent
// ring of retained (here: forced) query traces.
type retainedTraces struct {
	Recent []struct {
		Spans []struct {
			Name string        `json:"name"`
			Dur  time.Duration `json:"duration_ns"`
		} `json:"spans"`
	} `json:"recent"`
}
