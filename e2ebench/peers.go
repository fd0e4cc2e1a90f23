package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/hub"
	"repro/internal/hub/cluster"
)

// peerProc is one `schub serve` child process.
type peerProc struct {
	name       string
	url        string
	metricsURL string
	cmd        *exec.Cmd
	outDone    chan struct{}
}

// startPeers starts n hub peers with durable state under dir and default
// flags, each also serving /metrics on its own port, and returns once each
// answers GET /v1/_cluster/status.
func startPeers(schub, dir string, n int) ([]*peerProc, error) {
	var peers []*peerProc
	for i := 0; i < n; i++ {
		p, err := startPeer(schub, dir, fmt.Sprintf("p%d", i+1))
		if err != nil {
			stopPeers(peers)
			return nil, err
		}
		peers = append(peers, p)
	}
	for _, p := range peers {
		if err := waitReady(p); err != nil {
			stopPeers(peers)
			return nil, err
		}
	}
	return peers, nil
}

func startPeer(schub, dir, name string) (*peerProc, error) {
	state := filepath.Join(dir, name)
	cmd := exec.Command(schub, "serve", "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-state", state, "-peer-name", name)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &peerProc{name: name, cmd: cmd, outDone: make(chan struct{})}
	// Read the start-up banner for the bound addresses, then keep draining
	// so the peer never blocks on a full pipe.
	sc := bufio.NewScanner(stdout)
	for (p.url == "" || p.metricsURL == "") && sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "hub serving on "); ok {
			p.url = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
			u, _, _ := strings.Cut(rest, " ")
			p.metricsURL = u
		}
	}
	go func() {
		defer close(p.outDone)
		_, _ = io.Copy(io.Discard, stdout)
	}()
	if p.url == "" || p.metricsURL == "" {
		stopPeers([]*peerProc{p})
		return nil, fmt.Errorf("peer %s exited before announcing its address", name)
	}
	return p, nil
}

// waitReady polls the peer's status endpoint until it answers.
func waitReady(p *peerProc) error {
	c := hub.NewClientWithOptions(p.url, hub.ClientOptions{Retry: hub.RetryPolicy{MaxAttempts: 1}})
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.NodeStatus()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("peer %s not ready: %w", p.name, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopPeers asks each peer to shut down (SIGTERM: drain, flush the
// journal) and waits for it to exit, killing it if it takes too long.
func stopPeers(peers []*peerProc) {
	for _, p := range peers {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range peers {
		select {
		case <-p.outDone:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.outDone
		}
		_ = p.cmd.Wait()
	}
}

func clusterPeers(peers []*peerProc) []cluster.Peer {
	out := make([]cluster.Peer, len(peers))
	for i, p := range peers {
		out[i] = cluster.Peer{Name: p.name, URL: p.url}
	}
	return out
}

// peersCPU sums the CPU seconds the live peers have used.
func peersCPU(peers []*peerProc) (float64, error) {
	var total float64
	for _, p := range peers {
		c, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peersRSS sums the peers' peak resident set sizes.
func peersRSS(peers []*peerProc) (float64, error) {
	var total float64
	for _, p := range peers {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
