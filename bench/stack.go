package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"neurovec/internal/core"
	"neurovec/internal/fleet"
	"neurovec/internal/rl"
	"neurovec/internal/service"
	"neurovec/internal/trainer"
)

// fixtureSpec sizes the checkpoint every stack serves. The model shape is
// always the production one (340-wide code2vec, EmbedDim 32, 120 contexts,
// a 64x64 trunk with discrete heads); only the training effort varies.
type fixtureSpec struct {
	GenN, Iters, Batch int
}

// prodFixture is `neurovec train -corpus generated -n 200 -iters 3 -seed 1`.
var prodFixture = fixtureSpec{GenN: 200, Iters: 3, Batch: 200}

func (s fixtureSpec) file(dir string) string {
	return filepath.Join(dir, "fixture", fmt.Sprintf("model-n%d-i%d-b%d.gob", s.GenN, s.Iters, s.Batch))
}

// trainFixture trains the fixture checkpoint in-process, exactly as the CLI
// would with the same flags, and writes it to path.
func trainFixture(ctx context.Context, spec fixtureSpec, path string) error {
	rc := rl.DefaultConfig(nil, nil)
	rc.Iterations = spec.Iters
	rc.Batch = spec.Batch
	rc.MiniBatch = spec.Batch / 4
	rc.LR = 5e-4
	rc.Seed = 1
	rc.Space = rl.Discrete
	tr, err := trainer.New(trainer.Config{
		RL:             &rc,
		Corpus:         "generated",
		GenN:           spec.GenN,
		Seed:           1,
		Iterations:     spec.Iters,
		CheckpointPath: path,
	})
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	if _, err := tr.Run(ctx); err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	return nil
}

// fixture returns the fixture checkpoint under dir. A checkpoint this
// checkout already trained is reused unless retrain is set; a retrained
// checkpoint must be byte-identical to the one on disk, since training is
// seeded. trainS is the training time, 0 when the checkpoint was reused.
func fixture(ctx context.Context, dir string, spec fixtureSpec, retrain bool) (path string, trainS float64, err error) {
	path = spec.file(dir)
	if _, err := os.Stat(path); err == nil && !retrain {
		return path, 0, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", 0, err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	defer os.Remove(tmp)
	start := time.Now()
	if err := trainFixture(ctx, spec, tmp); err != nil {
		return "", 0, err
	}
	trainS = time.Since(start).Seconds()
	fresh, err := os.ReadFile(tmp)
	if err != nil {
		return "", 0, err
	}
	if old, err := os.ReadFile(path); err == nil {
		if !bytes.Equal(old, fresh) {
			return "", 0, fmt.Errorf("fixture: retrained checkpoint differs from %s; training is not deterministic", path)
		}
		return path, trainS, nil
	}
	return path, trainS, os.Rename(tmp, path)
}

// loadFramework loads the checkpoint into a fresh framework, as a server's
// model load does.
func loadFramework(path string) (*core.Framework, error) {
	fw := core.New(core.DefaultConfig())
	if err := fw.LoadModelFile(path); err != nil {
		return nil, err
	}
	return fw, nil
}

// loopback serves a handler on an ephemeral 127.0.0.1 port.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return lb, nil
}

func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// replica is one service.Server with its production default configuration,
// reachable over loopback.
type replica struct {
	svc *service.Server
	lb  *loopback
	// boot is the time service.New took, model load included.
	boot time.Duration
}

func startReplica(model string) (*replica, error) {
	start := time.Now()
	svc, err := service.New(service.Config{ModelPath: model})
	if err != nil {
		return nil, err
	}
	boot := time.Since(start)
	lb, err := listen(svc)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &replica{svc: svc, lb: lb, boot: boot}, nil
}

func (r *replica) close() {
	r.lb.close()
	r.svc.Close()
}

// fleetStack is a fleet.Router with its default configuration in front of
// two in-process replicas, all over loopback.
type fleetStack struct {
	replicas []*replica
	router   *fleet.Router
	lb       *loopback
}

func startFleet(model string) (*fleetStack, error) {
	fs := &fleetStack{}
	var urls []string
	for i := 0; i < 2; i++ {
		r, err := startReplica(model)
		if err != nil {
			fs.close()
			return nil, err
		}
		fs.replicas = append(fs.replicas, r)
		urls = append(urls, r.lb.url)
	}
	rt, err := fleet.New(fleet.Config{Replicas: urls})
	if err != nil {
		fs.close()
		return nil, err
	}
	rt.Start()
	fs.router = rt
	if fs.lb, err = listen(rt); err != nil {
		fs.close()
		return nil, err
	}
	return fs, nil
}

func (f *fleetStack) close() {
	if f.lb != nil {
		f.lb.close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		r.close()
	}
}

// newClient returns the benchmark's HTTP client: at most conns connections
// to any one host, no proxy, no compression.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	header http.Header
}

func post(ctx context.Context, c *http.Client, url, contentType string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, header: resp.Header}, nil
}

// promValues fetches a Prometheus text exposition and returns every sample
// keyed by its full series text (name plus labels).
func promValues(ctx context.Context, c *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of the named metric whose labels contain each
// of the given label fragments.
func sumSeries(vals map[string]float64, name string, labels ...string) float64 {
	var sum float64
	for series, v := range vals {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(series, l)
		}
		if ok {
			sum += v
		}
	}
	return sum
}
