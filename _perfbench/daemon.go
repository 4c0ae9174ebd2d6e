package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is the solver server under load: the unchanged cmd/bbserve binary
// that run.sh builds from the checkout next to the benchmark, started as
//
//	bbserve -addr 127.0.0.1:0 -parallel 1
//
// Every other setting is bbserve's default: GOMAXPROCS (= nproc) workers,
// an admission queue of 2 per worker, and info-level request logging, one
// JSON line per request on its standard error, which goes to a log file
// under the build directory. It is stopped the way an operator stops it,
// with SIGTERM, and must drain cleanly (exit 0).
type daemon struct {
	cmd    *exec.Cmd
	stdout *bufio.Reader
	log    *os.File
	url    string
}

// bbserveBin is the server binary, built by run.sh into the output
// directory.
const bbserveBin = "bbserve"

// startDaemon starts bbserve and waits until /readyz answers 200.
func startDaemon(client *http.Client, out string) (*daemon, error) {
	exe, err := filepath.Abs(filepath.Join(out, bbserveBin))
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(out, "bbserve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-addr", "127.0.0.1:0", "-parallel", "1")
	cmd.Stderr = log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s (run the benchmark through run.sh, which builds it): %w", exe, err)
	}
	d := &daemon{cmd: cmd, stdout: bufio.NewReader(stdout), log: log}
	line, err := d.stdout.ReadString('\n')
	_, addr, found := strings.Cut(strings.TrimSpace(line), "listening on ")
	if err != nil || !found {
		d.stop()
		return nil, fmt.Errorf("reading the server address: %q %v", line, err)
	}
	d.url = addr
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, fmt.Errorf("server not ready after 10s: %v", err)
		}
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
}

// stop sends SIGTERM, reads the server's remaining output, and waits for
// it to exit; a server that has not exited after 40s is killed. A drain
// that was not clean (exit code 1) is an error.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		_, _ = io.Copy(io.Discard, d.stdout) // ends when the server exits
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(40 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("server did not stop within 40s; killed")
	}
}

// debugVars is the part of the server's /debug/vars the benchmark reads.
type debugVars struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Breaker struct {
		Patterns int64 `json:"patterns"`
	} `json:"breaker"`
	Queue struct {
		Workers int `json:"workers"`
		Depth   int `json:"depth"`
	} `json:"queue"`
}

func (d *daemon) vars(client *http.Client) (debugVars, error) {
	var v debugVars
	return v, getJSON(client, d.url+"/debug/vars", &v)
}

func getJSON(client *http.Client, url string, dst any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
