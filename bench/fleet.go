package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"tigris/internal/gateway"
	"tigris/internal/geom"
	"tigris/internal/registration"
	"tigris/internal/serve"
)

// fleet is an in-process serving tier on loopback: N serve workers,
// optionally fronted by a least-loaded gateway. base is where a client
// connects.
type fleet struct {
	base    string
	workers []*serve.Server
	gw      *gateway.Gateway
	servers []*http.Server
	wg      sync.WaitGroup
}

// listen serves h on an ephemeral loopback port until stop.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	return "http://" + ln.Addr().String(), nil
}

// startFleet starts the workers (each with the harness's worker budget,
// as a default deployment on this box would) and, when asked, the
// gateway in front of them.
func startFleet(workers, par int, withGateway bool) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < workers; i++ {
		w := serve.New(serve.Config{MaxConcurrent: par, Parallelism: par})
		f.workers = append(f.workers, w)
		url, err := f.listen(w)
		if err != nil {
			f.stop()
			return nil, err
		}
		urls = append(urls, url)
	}
	f.base = urls[0]
	if withGateway {
		gw, err := gateway.New(gateway.Config{Workers: urls, Policy: gateway.PolicyLeastLoaded})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.gw = gw
		gw.PollWorkers()
		if f.base, err = f.listen(gw); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop closes every listener and session and waits for the serving
// goroutines to end.
func (f *fleet) stop() {
	for _, s := range f.servers {
		_ = s.Close()
	}
	f.wg.Wait()
	if f.gw != nil {
		f.gw.Close()
	}
	for _, w := range f.workers {
		w.Close()
	}
}

// wireTransform mirrors the service's JSON shape of a rigid transform.
// encoding/json round-trips float64 exactly, so poses read back over
// HTTP can be compared bit for bit.
type wireTransform struct {
	R [9]float64 `json:"r"`
	T [3]float64 `json:"t"`
}

func (wt wireTransform) transform() geom.Transform {
	return geom.Transform{R: geom.Mat3(wt.R), T: geom.Vec3{X: wt.T[0], Y: wt.T[1], Z: wt.T[2]}}
}

// client is one vehicle: a plain net/http client holding at most one
// connection, so P clients never open more than P connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do issues one request and decodes the JSON answer into out, failing
// on transport errors and on any status outside 2xx.
func (c *client) do(method, path string, body []byte, out any) (http.Header, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.Header, len(raw), nil
}

// sessionConfig is the JSON a client creates its session with, so the
// served pipeline is the workload's: nothing at all for DP5, which is
// what the service gives an empty config (canonical backend, pipelined).
func sessionConfig(w *workload) []byte {
	cfg := map[string]any{}
	if w.designPoint != "DP5" {
		cfg["design_point"] = w.designPoint
	}
	if w.frontEndOnRaw {
		cfg["voxel_leaf"] = -1 // no downsampling: the front-end sees the raw cloud
	}
	body, _ := json.Marshal(cfg) // a map of strings and numbers cannot fail
	return body
}

// create opens a session and returns its path and, behind a gateway,
// the worker it was placed on.
func (c *client) create(config []byte) (path, worker string, err error) {
	var created struct {
		ID string `json:"id"`
	}
	hdr, _, err := c.do(http.MethodPost, "/v1/sessions", config, &created)
	if err != nil {
		return "", "", err
	}
	return "/v1/sessions/" + created.ID, hdr.Get("X-Tigris-Worker"), nil
}

func (c *client) remove(path string) error {
	_, _, err := c.do(http.MethodDelete, path, nil, nil)
	return err
}

type pushResponse struct {
	Delta  *wireTransform `json:"delta"`
	WallMs float64        `json:"wall_ms"`
}

type trajectoryResponse struct {
	Trajectory []struct {
		Pose wireTransform `json:"pose"`
	} `json:"trajectory"`
}

type statsResponse struct {
	TreeBuilds    int64   `json:"tree_builds"`
	SearchQueries int64   `json:"search_queries"`
	NodesVisited  int64   `json:"nodes_visited"`
	SearchMs      float64 `json:"search_ms"`
	BuildMs       float64 `json:"build_ms"`
}

// sessionOut is one served session as its client saw it.
type sessionOut struct {
	pushed, failed int
	latency        []time.Duration
	pipelineMs     []float64
	poses          []geom.Transform
	worker         string
	create, traj   time.Duration
	trajBytes      int
	stats          statsResponse
}

// runSession is one vehicle's life: create a default session, push every
// frame with ?wait=1 (so the next frame is sent only once the pose of
// the last one is back), read the trajectory, read the counters, delete.
// A frame fails on any transport error or non-2xx answer, when its pose
// is missing, or when its delta is misaligned against ground truth.
func runSession(base string, encoded [][]byte, e *env, tr *tracer, parent uint64) (sessionOut, error) {
	var out sessionOut
	c := newClient(base)
	defer c.close()

	var path string
	var err error
	_, out.create = tr.span("client.create", 0, parent, func(uint64) { path, out.worker, err = c.create(sessionConfig(e.w)) })
	if err != nil {
		return out, err
	}

	for i, body := range encoded {
		out.pushed++
		var pr pushResponse
		_, d := tr.span("client.push", i, parent, func(uint64) {
			_, _, err = c.do(http.MethodPost, path+"/frames?wait=1", body, &pr)
		})
		switch {
		case err != nil, pr.Delta == nil:
			out.failed++
			continue
		case i > 0:
			fe := registration.EvaluatePair(pr.Delta.transform(), e.seq.GroundTruthDelta(i-1))
			out.failed += e.countMisaligned([]registration.FrameError{fe})
		}
		out.latency = append(out.latency, d)
		out.pipelineMs = append(out.pipelineMs, pr.WallMs)
	}

	var tj trajectoryResponse
	_, out.traj = tr.span("client.trajectory", len(encoded), parent, func(uint64) {
		_, out.trajBytes, err = c.do(http.MethodGet, path+"/trajectory?wait=1", nil, &tj)
	})
	if err != nil {
		return out, err
	}
	for _, fr := range tj.Trajectory {
		out.poses = append(out.poses, fr.Pose.transform())
	}
	if missing := len(encoded) - len(out.poses); missing > 0 {
		out.failed += missing
	}
	if _, _, err = c.do(http.MethodGet, path+"/stats", nil, &out.stats); err != nil {
		return out, err
	}
	return out, c.remove(path)
}

// fleetPass is serve_fleet: P vehicles at once through the gateway,
// each pushing the same frames in its own session.
func fleetPass(e *env, tr *tracer) (passResult, error) {
	outs := make([]sessionOut, e.par)
	errs := make([]error, e.par)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < e.par; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = tr.span("client.session", i, 0, func(id uint64) {
				outs[i], errs[i] = runSession(e.fleet.base, e.encoded, e, tr, id)
			})
		}(i)
	}
	wg.Wait()
	res := passResult{wall: time.Since(start)}
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	for i, o := range outs {
		res.ops += o.pushed
		res.failed += o.failed
		res.latency = append(res.latency, o.latency...)
		res.builds += o.stats.TreeBuilds
		res.search.Queries += o.stats.SearchQueries
		res.search.NodesVisited += o.stats.NodesVisited
		res.search.SearchTime += time.Duration(o.stats.SearchMs * float64(time.Millisecond))
		res.search.BuildTime += time.Duration(o.stats.BuildMs * float64(time.Millisecond))
		// Every vehicle pushed the same frames, so every session must
		// hand back the same trajectory.
		d := poseDigest(o.poses)
		if i == 0 {
			res.digest, res.poses = d, o.poses
		} else if d != res.digest {
			res.problems = append(res.problems, fmt.Sprintf("session %d returned a different trajectory than session 0", i))
		}
	}
	return res, nil
}
