// Command tigris-paper reproduces the paper's evaluation, one figure per
// selector, each printed as a table of named numeric columns:
//
//	tigris-paper [flags] <figure>...
//
// Run it without arguments for the figures (name, paper section, what a
// row is) and the flags. fig3, fig4, fig7a and fig7b register -frames
// synthetic LiDAR frames end to end. fig11–fig15 time the query stream
// the pipeline really issues on the first pair (dse.Capture, front-end on
// the raw clouds: the paper's pipeline has no downsampling stage) on the
// accelerator model and the GPU/CPU models, each batch on a tree over the
// point set it was answered over, two-stage leaf sets of ~128 points (the
// paper's height 10 on 130k-point frames). Modelled cycles, times and
// energies repeat exactly at a seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"tigris/internal/dse"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// table is one printed result: a row label column and numeric columns
// whose names carry their units.
type table struct {
	title string
	cols  []string // cols[0] heads the labels
	rows  []row
	note  string // what the paper reports for the same figure
}

type row struct {
	label string
	vals  []float64
}

func (t *table) add(label string, vals ...float64) {
	t.rows = append(t.rows, row{label, vals})
}

// formatValue prints four significant digits, and counts in full.
func formatValue(v float64) string {
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func (t table) write(w io.Writer) {
	fmt.Fprintf(w, "=== %s ===\n", t.title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, strings.Join(t.cols, "\t")+"\t")
	for _, r := range t.rows {
		fmt.Fprint(tw, r.label)
		for _, v := range r.vals {
			fmt.Fprint(tw, "\t", formatValue(v))
		}
		fmt.Fprintln(tw, "\t")
	}
	tw.Flush()
	if t.note != "" {
		fmt.Fprintf(w, "paper: %s\n", t.note)
	}
	fmt.Fprintln(w)
}

// figure is one selectable experiment.
type figure struct {
	name    string
	section string // where the paper reports it
	per     string // what a row is
	shows   string // what its columns report
	run     func(*env) []table
}

var figures = []figure{
	{"fig3", "§3.2 Fig. 3a/3b", "point of the Tbl. 1 knob grid", "registration error against time; then the two Pareto fronts", fig3},
	{"fig4", "§3.2 Fig. 4a/4b", "named design point DP1–DP8", "share of time per stage; KD-tree search, construction and the rest", fig4},
	{"fig6", "§4.1 Fig. 6a/6b", "two-stage leaf-set size", "node visits and their ratio to the canonical tree's, NN and radius search", fig6},
	{"fig7a", "§4.2 Fig. 7a", "k", "translational error when NN search returns the k-th neighbour, in dense RPCE and in sparse KPCE", fig7a},
	{"fig7b", "§4.2 Fig. 7b", "shell <r1,r2>", "translational error when Normal Estimation's radius search returns the shell", fig7b},
	{"fig11", "§6.3 Fig. 11a/11b", "search system, on the captured DP7 and DP4 streams", "time, speed-up and power reduction over the GPU; Acc-2SKD's energy split", fig11},
	{"fig12", "§6 Fig. 12", "RU/issue optimisation step of Acc-2SKD", "speed-up over the GPU and over No-Opt, power reduction", fig12},
	{"fig13", "§6 Fig. 13", "accelerator variant", "share of on-chip memory traffic per buffer", fig13},
	{"fig14", "§6 Fig. 14", "RU, SU, PE count (64 configurations)", "search time and power", fig14},
	{"fig15", "§6 Fig. 15", "top-tree height", "search time and energy", fig15},
	{"area", "§6.2", "SRAM, logic, total", "area at 16 nm", area},
}

func usage(fs *flag.FlagSet) string {
	var b strings.Builder
	fmt.Fprintln(&b, "usage: tigris-paper [flags] <figure>...")
	fmt.Fprintln(&b, "figures (all runs every one):")
	for _, f := range figures {
		fmt.Fprintf(&b, "  %-6s %-18s per %s: %s\n", f.name, f.section, f.per, f.shows)
	}
	fmt.Fprintln(&b, "flags:")
	fs.SetOutput(&b)
	fs.PrintDefaults()
	return b.String()
}

// env is the shared flag set and what the figures build from it once:
// the sequence and one captured experiment per design point.
type env struct {
	seed     int64
	quick    bool
	full     bool
	frames   int
	parallel int
	backend  string

	seq   *synth.Sequence
	accel map[string]*experiment
}

func (e *env) sequence() *synth.Sequence {
	if e.seq == nil {
		cfg := synth.EvalSequenceConfig(e.frames, e.seed)
		if e.quick {
			cfg = synth.QuickSequenceConfig(e.frames, e.seed)
		}
		if e.full {
			// HDL-64E class: 64 beams at ~0.18 degree azimuth resolution.
			cfg.Lidar.Beams, cfg.Lidar.AzimuthSteps = 64, 2000
		}
		e.seq = synth.GenerateSequence(cfg)
	}
	return e.seq
}

// config overlays -parallel and -backend on a design point.
func (e *env) config(dp dse.DesignPoint) registration.PipelineConfig {
	cfg := dp.Config
	cfg.Searcher.Parallelism = e.parallel
	if e.backend != "" {
		cfg.Searcher.Backend = e.backend
	}
	return cfg
}

func run(args []string, w io.Writer) error {
	e := &env{}
	fs := flag.NewFlagSet("tigris-paper", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int64Var(&e.seed, "seed", 2019, "dataset seed")
	fs.BoolVar(&e.quick, "quick", false, "small test-scale frames (~4.7k points)")
	fs.BoolVar(&e.full, "full", false, "KITTI-scale ~130k-point frames (the paper's regime; slower)")
	fs.IntVar(&e.frames, "frames", 3, "frames in the synthetic sequence (fig3, fig4, fig7a, fig7b register every consecutive pair; the rest use the first)")
	fs.IntVar(&e.parallel, "parallel", 0, "batch search worker count (0 = the slot budget, GOMAXPROCS; 1 = sequential)")
	fs.StringVar(&e.backend, "backend", search.BackendCanonical, "search backend registry name for fig3, fig4, fig7a, fig7b (the default is the paper's software baseline, one point a node; \"\" keeps each design point's own, twostage)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%v\n%s", err, usage(fs))
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("%s", usage(fs))
	}
	if e.frames < 2 {
		return fmt.Errorf("-frames %d: a pair needs two", e.frames)
	}
	if e.backend != "" {
		if err := (registration.SearcherConfig{Backend: e.backend}).Validate(); err != nil {
			return err
		}
	}
	var selected []figure
	for _, name := range fs.Args() {
		i := slices.IndexFunc(figures, func(f figure) bool { return f.name == name })
		switch {
		case name == "all":
			selected = append(selected, figures...)
		case i >= 0:
			selected = append(selected, figures[i])
		default:
			return fmt.Errorf("unknown figure %q\n%s", name, usage(fs))
		}
	}
	fmt.Fprintf(w, "dataset: %d frames of %d points (seed %d)\n\n", e.frames, e.sequence().Frames[0].Len(), e.seed)
	for _, f := range selected {
		for _, t := range f.run(e) {
			t.write(w)
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
