package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"
)

// SpawnConfig configures a locally spawned replica set (`neurovec fleet`
// without `-join`). The alternative is joining externally managed replicas
// by address (`-join`), in which case this file is not involved. Every
// replica runs this process's executable (os.Args[0]) with its stdout
// discarded and its stderr shared with the parent.
type SpawnConfig struct {
	// N is the replica count.
	N int
	// Args are appended to "serve -addr <host:port>" on every replica's
	// command line — the model path, log flags, cache sizing, and so on.
	Args []string
	// Logger receives supervision events; nil discards them.
	Logger *slog.Logger
}

// Spawned is a supervised set of local replica processes. A replica that
// exits unexpectedly is restarted on its original port with capped backoff,
// so the router's ring membership stays stable across crashes: the prober
// ejects the dead replica, the supervisor restarts it, and the prober
// re-admits it.
type Spawned struct {
	// Addrs are the replicas' base URLs in spawn order — the router's
	// Config.Replicas.
	Addrs []string

	cfg      SpawnConfig
	procs    []*proc
	log      *slog.Logger
	stopping atomic.Bool
	wg       sync.WaitGroup
}

// proc is one supervised child process.
type proc struct {
	addr string // host:port
	mu   sync.Mutex
	cmd  *exec.Cmd
}

// Spawn starts n replica processes on free localhost ports and begins
// supervising them. It does not wait for readiness; use WaitReady.
func Spawn(cfg SpawnConfig) (*Spawned, error) {
	if cfg.N <= 0 {
		return nil, errors.New("fleet: spawn needs at least one replica")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Spawned{cfg: cfg, log: cfg.Logger}
	for i := 0; i < cfg.N; i++ {
		addr, err := freePort()
		if err != nil {
			s.Stop(5 * time.Second)
			return nil, err
		}
		p := &proc{addr: addr}
		if err := s.start(p); err != nil {
			s.Stop(5 * time.Second)
			return nil, err
		}
		s.procs = append(s.procs, p)
		s.Addrs = append(s.Addrs, "http://"+addr)
		s.wg.Add(1)
		go s.supervise(p)
	}
	return s, nil
}

// freePort reserves an ephemeral localhost port by binding and releasing it.
// The window between release and the child's bind is racy in principle, but
// localhost ephemeral ports do not get reused that fast; a lost race
// surfaces as the child failing readiness, not as silent misrouting.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// start launches (or relaunches) the child for p.
func (s *Spawned) start(p *proc) error {
	args := append([]string{"serve", "-addr", p.addr}, s.cfg.Args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fleet: spawn replica on %s: %w", p.addr, err)
	}
	p.mu.Lock()
	p.cmd = cmd
	p.mu.Unlock()
	s.log.Info("replica spawned", "replica", p.addr, "pid", cmd.Process.Pid)
	return nil
}

// supervise restarts p's child whenever it exits before Stop, with capped
// backoff so a crash-looping binary cannot spin the CPU.
func (s *Spawned) supervise(p *proc) {
	defer s.wg.Done()
	backoff := 500 * time.Millisecond
	for {
		p.mu.Lock()
		cmd := p.cmd
		p.mu.Unlock()
		err := cmd.Wait()
		if s.stopping.Load() {
			return
		}
		s.log.Warn("replica exited unexpectedly", "replica", p.addr, "error", err)
		time.Sleep(backoff)
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
		if s.stopping.Load() {
			return
		}
		if err := s.start(p); err != nil {
			s.log.Error("replica restart failed", "replica", p.addr, "error", err)
			continue
		}
	}
}

// WaitReady blocks until every replica answers GET /readyz with 200 (the
// model is loaded and serving) or the context/timeout expires.
func (s *Spawned) WaitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for _, base := range s.Addrs {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("fleet: replica %s not ready: %w", base, ctx.Err())
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return nil
}

// Stop shuts the replica set down: SIGTERM (graceful drain in `serve`), then
// SIGKILL for stragglers after the timeout.
func (s *Spawned) Stop(timeout time.Duration) {
	s.stopping.Store(true)
	for _, p := range s.procs {
		p.mu.Lock()
		cmd := p.cmd
		p.mu.Unlock()
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Signal(os.Interrupt)
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		for _, p := range s.procs {
			p.mu.Lock()
			cmd := p.cmd
			p.mu.Unlock()
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
		<-done
	}
}
