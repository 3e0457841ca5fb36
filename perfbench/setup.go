package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/service"
	"attrank/internal/synth"
)

// rankParams are the AttRank parameters every workload ranks with: the
// dblp profile's attention window and recency exponent, one kernel
// partition per core as attrank-serve defaults to.
var rankParams = core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: -1}

// impactConfig is the indicator layer the serve workloads run with.
var impactConfig = impact.Config{Enabled: true, Workers: -1}

// childOutput runs one step of the run in a child process of this binary
// and returns what it printed: "gen" writes the seeded corpus to input;
// "setup" times one set-up of the workload on input and prints the
// seconds; "run" runs the workload untraced on input and prints its
// outcome as JSON. Running them apart keeps the generator's memory, the
// repeated set-ups and the other half of a traced run out of the
// measured process's peak RSS.
func childOutput(step string, o options, input string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, "--child", step, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--input", input)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("child %s: %w", step, err)
	}
	return strings.TrimSpace(stdout.String()), nil
}

func runChild(step string, o options, input string) error {
	switch step {
	case "gen":
		prof := synth.DBLP()
		prof = prof.Scale(float64(o.papers) / float64(prof.Papers))
		net, err := synth.GenerateSeeded(prof, o.seed)
		if err != nil {
			return err
		}
		return dataio.SaveFile(input, net)
	case "setup":
		dir, err := os.MkdirTemp(filepath.Dir(input), "setup-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		var secs float64
		if o.workload == "eval_sweep" {
			st, err := setupSweep(input, nil)
			if err != nil {
				return err
			}
			secs = st.setup.Seconds()
		} else {
			srv, err := startServer(input, dir, serverConfig(o.workload), nil)
			if err != nil {
				return err
			}
			secs = srv.setup.Seconds()
			if err := srv.close(); err != nil {
				return err
			}
		}
		fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
		return nil
	case "run":
		dir, err := os.MkdirTemp(filepath.Dir(input), "run-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		out, err := runWorkload(o, input, dir, nil)
		if err != nil {
			return err
		}
		line, err := json.Marshal(childRun{Correct: out.correct, Notes: out.gateNotes, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e, Ungated: out.ungated})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	return fmt.Errorf("unknown child step %q", step)
}

// childSetups runs o.setupReps−1 set-ups in child processes and returns
// their times; the caller adds its own, measured in process.
func childSetups(o options, input string) ([]float64, error) {
	var out []float64
	for i := 1; i < o.setupReps; i++ {
		s, err := childOutput("setup", o, input)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("child setup printed %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// setupMetric is setup_s: the median of the run's set-ups. It prints
// each one.
func setupMetric(setups []float64) metric {
	fmt.Printf("set-ups (s): %.3f\n", setups)
	return metric{Value: median(setups), Unit: "s", n: len(setups)}
}

// serverConfig is the ingest configuration of each serve workload.
// serve_write is the freshness-first deployment: push epochs at tol
// 1e-6, a re-rank after every write, default reconcile cadence.
func serverConfig(workload string) ingest.Config {
	cfg := ingest.Config{Params: rankParams, Impact: impactConfig}
	if workload == "serve_write" {
		cfg.PushTol = 1e-6
		cfg.RerankAfter = 1
	}
	return cfg
}

// liveServer is one running attrank service over a live ingester,
// listening on a loopback port.
type liveServer struct {
	ing     *ingest.Ingester
	handler http.Handler
	url     string
	stop    context.CancelFunc
	done    chan error
	setup   time.Duration // input file → /readyz 200
}

// startServer is the serve workloads' set-up: load the input file, open
// the ingester (snapshot + first full epoch), start the HTTP server and
// poll /readyz until it answers 200.
func startServer(input, dir string, cfg ingest.Config, tr *tracer) (*liveServer, error) {
	t0 := time.Now()
	sp := tr.start("setup", 0, 0)
	lsp := tr.start("dataio.load", sp, 0)
	net0, err := dataio.LoadFile(input)
	tr.end(lsp)
	if err != nil {
		return nil, err
	}
	cfg.Dir = filepath.Join(dir, "state")
	osp := tr.start("ingest.open", sp, 0)
	ing, err := ingest.Open(net0, cfg)
	tr.end(osp)
	if err != nil {
		return nil, err
	}
	srv := service.NewLive(ing)
	srv.SetLogf(nil)
	srv.ConfigureAdmission(service.AdmissionConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ing.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &liveServer{
		ing: ing, handler: srv.Handler(),
		url: "http://" + ln.Addr().String(), stop: cancel, done: make(chan error, 1),
	}
	go func() { s.done <- service.ServeListener(ctx, ln, s.handler, service.ServeOptions{}) }()
	if err := s.waitReady(); err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(t0)
	tr.end(sp)
	return s, nil
}

func (s *liveServer) waitReady() error {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not ready within 30s")
}

// close stops the HTTP server, waits for it, and closes the ingester.
func (s *liveServer) close() error {
	s.stop()
	err := <-s.done
	if cerr := s.ing.Close(); err == nil {
		err = cerr
	}
	return err
}

// getJSON fetches url and decodes its JSON body into dst.
func getJSON(client *http.Client, url string, dst any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// childRun is the outcome of an untraced run in a child process.
type childRun struct {
	Correct   bool              `json:"correct"`
	Notes     []string          `json:"notes"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Ungated   map[string]metric `json:"ungated"`
}

// untracedChild runs the workload untraced in a child process on the
// same input and returns its outcome.
func untracedChild(o options, input string) (*outcome, error) {
	s, err := childOutput("run", o, input)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(s, "\n")
	var r childRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("untraced child: %w", err)
	}
	for _, n := range r.Notes {
		fmt.Println("untraced:", n)
	}
	for name, m := range merge(r.Metrics, r.Ungated) {
		fmt.Printf("untraced %-30s %14.4f %s\n", name, m.Value, m.Unit)
	}
	return &outcome{correct: r.Correct, gateNotes: r.Notes, attempted: r.Attempted, failed: r.Failed, e2e: r.Metrics, ungated: r.Ungated}, nil
}
