package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"tigris/internal/dse"
	"tigris/internal/sim"
)

// quickEnv is the -quick scale the tests run every figure at: two frames,
// two workers.
func quickEnv() *env { return &env{seed: 2019, quick: true, frames: 2, parallel: 2} }

// shared is built once: the figures cache the sequence and the captured
// streams on it, as one `tigris-paper all` run does.
var shared = quickEnv()

// TestFiguresReturnFiniteRows: every figure yields at least one table,
// every table rows, every row one finite number per numeric column — and
// the one table writer prints each of them.
func TestFiguresReturnFiniteRows(t *testing.T) {
	for _, f := range figures {
		tables := f.run(shared)
		if len(tables) == 0 {
			t.Errorf("%s: no table", f.name)
		}
		for _, tb := range tables {
			if len(tb.rows) == 0 {
				t.Errorf("%s %q: no rows", f.name, tb.title)
			}
			for _, r := range tb.rows {
				if len(r.vals) != len(tb.cols)-1 {
					t.Errorf("%s %q row %q: %d values under %d columns", f.name, tb.title, r.label, len(r.vals), len(tb.cols)-1)
				}
				for i, v := range r.vals {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s %q row %q: %s = %v", f.name, tb.title, r.label, tb.cols[i+1], v)
					}
				}
			}
			var out bytes.Buffer
			tb.write(&out)
			if got := strings.Count(out.String(), "\n"); got < len(tb.rows)+3 {
				t.Errorf("%s %q: printed %d lines for %d rows", f.name, tb.title, got, len(tb.rows))
			}
		}
	}
}

// TestFig11Repeats: simulated cycles and model times depend on the seed
// alone, so a second capture and simulation gives the same rows to the
// last bit.
func TestFig11Repeats(t *testing.T) {
	if a, b := fig11(shared), fig11(quickEnv()); !reflect.DeepEqual(a, b) {
		t.Errorf("two fig11 runs at one seed differ:\n%v\n%v", a, b)
	}
}

// TestSimulatorAnswersMatchCanonical: on the captured stream, every
// nearest neighbour the accelerator model returns is the canonical
// tree's.
func TestSimulatorAnswersMatchCanonical(t *testing.T) {
	x := shared.experiment(dse.DP7())
	checked := 0
	for i, w := range x.ws {
		if w.Kind != sim.NNSearch {
			continue
		}
		rep := must(sim.Run(x.two[x.slab[i]], w, sim.DefaultConfig()))
		for q, got := range rep.NNResults {
			if want, _ := x.kd[x.slab[i]].Nearest(w.Queries[q], nil); got.Dist2 != want.Dist2 {
				t.Fatalf("workload %d (%s) query %d: simulator found %v, canonical tree %v", i, w.Stage, q, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("the captured stream holds no NN query")
	}
}

func TestRunSelectsFigures(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "area"}, &out); err != nil || !strings.Contains(out.String(), "§6.2") {
		t.Errorf("area: err %v, output %q", err, out.String())
	}
	err := run([]string{"-quick", "fig99"}, &out)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, f := range figures {
		if !strings.Contains(err.Error(), f.name) {
			t.Errorf("unknown-figure error does not list %s", f.name)
		}
	}
	if run(nil, &out) == nil {
		t.Error("no figure named: want the usage as an error")
	}
}
