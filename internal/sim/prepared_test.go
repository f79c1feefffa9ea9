package sim

import (
	"math/rand"
	"testing"

	"tigris/internal/twostage"
)

func TestPreparedReuseMatchesRun(t *testing.T) {
	// Simulating a prepared trace must give exactly the same report as a
	// direct Run with the same config.
	r := rand.New(rand.NewSource(20))
	tree := twostage.BuildWithLeafSize(randPoints(r, 4000), 128)
	queries := clusteredQueries(r, tree.Points(), 400)
	w := Workload{Kind: NNSearch, Queries: queries}

	cfg := DefaultConfig()
	p, err := Prepare(tree, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(tree, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaPrepared, err := p.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cycles != viaPrepared.Cycles || direct.Traffic != viaPrepared.Traffic {
		t.Error("prepared simulation diverged from direct Run")
	}
}

func TestPreparedSweepIsConsistent(t *testing.T) {
	// The Fig. 14 usage pattern: one trace, many unit-count configs. Each
	// swept config must match what a fresh Run would produce.
	r := rand.New(rand.NewSource(21))
	tree := twostage.BuildWithLeafSize(randPoints(r, 3000), 64)
	queries := clusteredQueries(r, tree.Points(), 300)
	w := Workload{Kind: RadiusSearch, Queries: queries, Radius: 2}

	base := DefaultConfig()
	p, err := Prepare(tree, w, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, ru := range []int{8, 32, 128} {
		cfg := base
		cfg.NumRU = ru
		swept, err := p.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(tree, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if swept.Cycles != fresh.Cycles {
			t.Errorf("RU=%d: swept %d cycles, fresh %d", ru, swept.Cycles, fresh.Cycles)
		}
	}
}

func TestPreparedRejectsApproxMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tree := twostage.Build(randPoints(r, 500), 4)
	w := Workload{Kind: NNSearch, Queries: clusteredQueries(r, tree.Points(), 50)}
	cfg := DefaultConfig()
	p, err := Prepare(tree, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Approx = 1.2
	if _, err := p.Simulate(bad); err == nil {
		t.Error("approximation mismatch accepted")
	}
	bad2 := cfg
	bad2.LeaderCap = 8
	if _, err := p.Simulate(bad2); err == nil {
		t.Error("leader-cap mismatch accepted")
	}
}

func TestPreparedEmptyWorkload(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tree := twostage.Build(randPoints(r, 100), 3)
	p, err := Prepare(tree, Workload{Kind: NNSearch}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Simulate(DefaultConfig())
	if err != nil || rep.Cycles != 0 {
		t.Error("empty prepared workload should be a no-op")
	}
}

func TestLeaderCapAccuracyTradeoff(t *testing.T) {
	// §5.3: "capping the Leader Buffer improves accuracy because more
	// queries will be searched exactly". A smaller cap must not reduce the
	// number of exact (precise-path) queries.
	r := rand.New(rand.NewSource(24))
	tree := twostage.BuildWithLeafSize(surfacePoints(r, 8000), 128)
	queries := tree.Points()[:3000]

	followerCount := func(cap int) int {
		cfg := DefaultConfig()
		cfg.Approx = 1.0
		cfg.LeaderCap = cap
		p, err := Prepare(tree, Workload{Kind: NNSearch, Queries: queries}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := range queries {
			for _, v := range p.visits.Query(i) {
				if v.Follower {
					n++
				}
			}
		}
		return n
	}
	small := followerCount(4)
	large := followerCount(64)
	if small > large {
		t.Errorf("smaller cap produced more followers: cap4=%d cap64=%d", small, large)
	}
	if large == 0 {
		t.Error("no followers at generous cap; test workload ineffective")
	}
}
