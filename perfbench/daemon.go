package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running server process: rvserved or the reference server.
type daemon struct {
	cmd  *exec.Cmd
	base string     // http://127.0.0.1:port
	done chan error // receives the process's exit status once
}

// startDaemon boots rvserved on an ephemeral port and returns once it has
// printed its listening address — after any warm-start file is loaded.
func startDaemon(bin string, args ...string) (*daemon, error) {
	return startProcess(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
}

// startProcess starts a server and returns once it has printed "listening
// on" and its base URL.
func startProcess(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	listening := make(chan string, 1)
	go func() {
		// Read stdout to EOF (the daemon must never block on it), then reap.
		br := bufio.NewReader(stdout)
		for {
			line, err := br.ReadString('\n')
			if i := strings.Index(line, "listening on "); i >= 0 {
				listening <- strings.TrimSpace(line[i+len("listening on "):])
			}
			if err != nil {
				break
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.base = <-listening:
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("%s exited before listening: %v", bin, err)
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-d.done
		return nil, fmt.Errorf("%s did not listen within 60s", bin)
	}
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("rvserved did not stop within 60s of SIGTERM")
	}
}

// kill stops the daemon on an error path, ignoring how it ends.
func (d *daemon) kill() {
	if d.cmd.Process.Kill() == nil {
		<-d.done
	}
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)) }

// client is one keep-alive HTTP client of a daemon; its transport keeps at
// most conns connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

// post sends one request and returns the status and the whole body.
func (c *client) post(path, body string) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// reply is the part of a simulation response the benchmark checks.
type reply struct {
	Met       bool    `json:"met"`
	Time      float64 `json:"time"`
	Intervals int     `json:"intervals"`
	Horizon   float64 `json:"horizon"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	Runtime struct {
		TotalAlloc uint64 `json:"total_alloc_bytes"`
		NumGC      uint32 `json:"num_gc"`
	} `json:"runtime"`
	Cache struct {
		Lookups, Hits, Misses, Dedups uint64
		Len                           int
	} `json:"cache"`
}

func (c *client) metrics() (metricsDoc, error) {
	var m metricsDoc
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, err
	}
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return m, json.Unmarshal(raw, &m)
}
