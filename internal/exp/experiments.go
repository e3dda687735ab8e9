package exp

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/base"
	"repro/privsp"
)

// Table1 reproduces Table 1: the evaluated road networks.
func (r *Runner) Table1() (*Table, error) {
	t := &Table{ID: "table1", Title: "Road networks", Header: []string{
		"network", "paper nodes", "paper edges", "generated nodes", "generated edges", "scale"}}
	for _, p := range gen.AllPresets() {
		full := gen.PresetSpec(p, 1.0)
		g := r.Network(p)
		t.AddRow(PresetName(p),
			fmt.Sprint(full.Nodes), fmt.Sprint(full.Edges),
			fmt.Sprint(g.NumNodes()), fmt.Sprint(g.NumEdges()),
			fmt.Sprintf("%.3f", r.Cfg.Scale))
	}
	t.Notes = append(t.Notes, PaperFindings["table1"])
	return t, nil
}

// row is one table row: its label and the product configuration behind it.
type row struct {
	name string
	cfg  privsp.Config
}

// The four methods of Table 3 and Fig. 7, the baselines at the paper's
// tuning (§7.2), which is their Config default.
var (
	rowAF = row{"AF", privsp.Config{Scheme: privsp.AF}}
	rowLM = row{"LM", privsp.Config{Scheme: privsp.LM}}
	rowCI = row{"CI", privsp.Config{Scheme: privsp.CI}}
	rowPI = row{"PI", privsp.Config{Scheme: privsp.PI}}
)

// measure builds one row and runs the workload on it.
func (r *Runner) measure(g *graph.Graph, rw row) (Servable, Agg, error) {
	sv, err := r.Build(rw.name, g, rw.cfg)
	if err != nil {
		return Servable{}, Agg{}, err
	}
	agg, err := r.RunWorkload(g, sv.Query)
	if err != nil {
		return Servable{}, Agg{}, fmt.Errorf("%s: %w", rw.name, err)
	}
	return sv, agg, nil
}

// Fig5 reproduces Figure 5: LM fine-tuning on Argentina — response time and
// space versus the number of landmarks.
func (r *Runner) Fig5() (*Table, error) {
	g := r.Network(gen.Argentina)
	t := &Table{ID: "fig5", Title: "LM fine-tuning (Argentina)", Header: []string{
		"landmarks", "response (s)", "space (MB)", "plan pages"}}
	for _, k := range []int{1, 2, 3, 5, 8, 12, 16, 20} {
		sv, agg, err := r.measure(g, row{fmt.Sprintf("LM(%d)", k), privsp.Config{Scheme: privsp.LM, Landmarks: k}})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(k), Secs(agg.Response), MB(sv.Bytes),
			fmt.Sprint(sv.DB.Plan.TotalFetches(base.FileData)))
	}
	t.Notes = append(t.Notes, PaperFindings["fig5"])
	return t, nil
}

// Table3 reproduces Table 3: components of response time on Argentina for
// AF, LM, CI and PI, next to the paper's full-scale numbers.
func (r *Runner) Table3() (*Table, error) {
	g := r.Network(gen.Argentina)
	t := &Table{ID: "table3", Title: "Components of response time (Argentina)", Header: []string{
		"method", "response (s)", "PIR (s)", "comm (s)", "client (s)", "server (s)",
		"Fd acc (of pages)", "Fi acc (of pages)", "space (MB)",
		"paper resp (s)", "paper space (MB)"}}
	for _, rw := range []row{rowAF, rowLM, rowCI, rowPI} {
		sv, agg, err := r.measure(g, rw)
		if err != nil {
			return nil, err
		}
		fdPages, fiPages := 0, 0
		if f := sv.DB.File(base.FileData); f != nil {
			fdPages = f.NumPages()
		}
		if f := sv.DB.File(base.FileIndex); f != nil {
			fiPages = f.NumPages()
		}
		paper := PaperTable3[rw.name]
		t.AddRow(rw.name,
			Secs(agg.Response), Secs(agg.PIR), Secs(agg.Comm), Secs(agg.Client), Secs(agg.Server),
			fmt.Sprintf("%.0f of %d", agg.FetchesFd, fdPages),
			fmt.Sprintf("%.0f of %d", agg.FetchesFi, fiPages),
			MB(sv.Bytes),
			fmt.Sprintf("%.2f", paper.Response), fmt.Sprintf("%.2f", paper.SpaceMB))
	}
	t.Notes = append(t.Notes,
		PaperFindings["table3"],
		"Fi accesses here include the one Fl look-up page per query.")
	return t, nil
}

// Fig6 reproduces Figure 6: the obfuscation baseline versus CI and PI on
// Argentina as |S| = |T| grows.
func (r *Runner) Fig6() (*Table, error) {
	g := r.Network(gen.Argentina)
	t := &Table{ID: "fig6", Title: "Effect of |S| on OBF, |S|=|T| (Argentina)", Header: []string{
		"method", "response (s)"}, BarColumn: 1, BarUnit: "seconds"}
	for _, k := range []int{20, 40, 60, 80, 100} {
		sv, err := r.BuildOBF(g, k)
		if err != nil {
			return nil, err
		}
		agg, err := r.RunWorkload(g, sv.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sv.Name, err)
		}
		t.AddRow(sv.Name, Secs(agg.Response))
	}
	for _, rw := range []row{rowCI, rowPI} {
		_, agg, err := r.measure(g, rw)
		if err != nil {
			return nil, err
		}
		t.AddRow(rw.name+" (reference)", Secs(agg.Response))
	}
	t.Notes = append(t.Notes, PaperFindings["fig6"],
		"OBF additionally leaks the |S|x|T| candidate sets; the PIR schemes leak nothing.")
	return t, nil
}

// sweep measures rows on Oldenburg, Germany and Argentina, adding one table
// row per network and row; cells renders the columns after the two labels.
func (r *Runner) sweep(t *Table, rows []row, cells func(g *graph.Graph, sv Servable, agg Agg) []string) error {
	for _, p := range []gen.Preset{gen.Oldenburg, gen.Germany, gen.Argentina} {
		g := r.Network(p)
		for _, rw := range rows {
			sv, agg, err := r.measure(g, rw)
			if err != nil {
				return fmt.Errorf("%s: %w", PresetName(p), err)
			}
			t.AddRow(append([]string{PresetName(p), rw.name}, cells(g, sv, agg)...)...)
		}
	}
	return nil
}

// responseAndSpace is the cells of a sweep row in Fig. 7 and Fig. 9.
func responseAndSpace(_ *graph.Graph, sv Servable, agg Agg) []string {
	return []string{Secs(agg.Response), MB(sv.Bytes)}
}

// Fig7 reproduces Figure 7: the four methods across Oldenburg, Germany and
// Argentina.
func (r *Runner) Fig7() (*Table, error) {
	t := &Table{ID: "fig7", Title: "Performance on different road networks", Header: []string{
		"network", "method", "response (s)", "space (MB)"}}
	if err := r.sweep(t, []row{rowAF, rowLM, rowCI, rowPI}, responseAndSpace); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, PaperFindings["fig7"])
	return t, nil
}

// Fig8 reproduces Figure 8: the effect of packed partitioning (CI/PI versus
// their plain-KD-tree -P variants).
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{ID: "fig8", Title: "Effect of packed partitioning", Header: []string{
		"network", "method", "Fd utilization (%)", "response (s)", "space (MB)"}}
	rows := []row{
		rowCI, {"CI-P", privsp.Config{Scheme: privsp.CI, DisablePacking: true}},
		rowPI, {"PI-P", privsp.Config{Scheme: privsp.PI, DisablePacking: true}},
	}
	err := r.sweep(t, rows, func(g *graph.Graph, sv Servable, agg Agg) []string {
		return []string{fmt.Sprintf("%.1f", 100*Utilization(g, sv.DB)), Secs(agg.Response), MB(sv.Bytes)}
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, PaperFindings["fig8"])
	return t, nil
}

// Fig9 reproduces Figure 9: the effect of index compression (CI/PI versus
// their uncompressed -C variants).
func (r *Runner) Fig9() (*Table, error) {
	t := &Table{ID: "fig9", Title: "Effect of compression", Header: []string{
		"network", "method", "response (s)", "space (MB)"}}
	rows := []row{
		rowCI, {"CI-C", privsp.Config{Scheme: privsp.CI, DisableCompression: true}},
		rowPI, {"PI-C", privsp.Config{Scheme: privsp.PI, DisableCompression: true}},
	}
	if err := r.sweep(t, rows, responseAndSpace); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, PaperFindings["fig9"])
	return t, nil
}

// hyRows are HY at thresholds m/frac for each frac (at least 1), in order.
func hyRows(m int, fracs ...int) []row {
	rows := make([]row, len(fracs))
	for i, frac := range fracs {
		th := max(m/frac, 1)
		rows[i] = row{fmt.Sprintf("HY(%d)", th), privsp.Config{Scheme: privsp.HY, Threshold: th}}
	}
	return rows
}

// piStarRows are PI* at each cluster size, in order.
func piStarRows(clusters ...int) []row {
	rows := make([]row, len(clusters))
	for i, c := range clusters {
		rows[i] = row{fmt.Sprintf("PI*(%d)", c), privsp.Config{Scheme: privsp.PIStar, ClusterPages: c}}
	}
	return rows
}

// Fig10 reproduces Figure 10: the |S_i,j| histogram on Denmark and HY's
// space/time trade-off versus the cardinality threshold.
func (r *Runner) Fig10() ([]*Table, error) {
	g := r.Network(gen.Denmark)
	sizes, m, err := r.SetSizeHistogram(g)
	if err != nil {
		return nil, err
	}
	hist := &Table{ID: "fig10a", Title: "Distribution of |S_i,j| in CI (Denmark)", Header: []string{
		"|S_i,j| bucket", "frequency"}, BarColumn: 1, BarUnit: "sets"}
	buckets := 10
	width := (m + buckets - 1) / buckets
	if width == 0 {
		width = 1
	}
	counts := make([]int, buckets+1)
	for _, s := range sizes {
		counts[s/width]++
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		hist.AddRow(fmt.Sprintf("%d-%d", i*width, (i+1)*width-1), fmt.Sprint(c))
	}
	hist.Notes = append(hist.Notes, fmt.Sprintf("m (largest set) = %d over %d pairs", m, len(sizes)),
		PaperFindings["fig10"])

	sweep := &Table{ID: "fig10bc", Title: "HY vs threshold on |S_i,j| (Denmark)", Header: []string{
		"threshold", "response (s)", "space (MB)", "fits scaled limit"}}
	limit := r.ScaledSizeLimit()
	for _, rw := range hyRows(m, 8, 4, 2, 1) {
		sv, agg, err := r.measure(g, rw)
		if err != nil {
			return nil, err
		}
		sweep.AddRow(fmt.Sprint(rw.cfg.Threshold), Secs(agg.Response), MB(sv.Bytes), fmt.Sprint(sv.Bytes <= limit))
	}
	ciRef, aggCI, err := r.measure(g, rowCI)
	if err != nil {
		return nil, err
	}
	sweep.AddRow("CI (reference)", Secs(aggCI.Response), MB(ciRef.Bytes), "true")
	sweep.Notes = append(sweep.Notes,
		fmt.Sprintf("scaled DB size limit: %s MB (2.5 GB x scale^1.75; see ScaledSizeLimit)", MB(limit)))
	return []*Table{hist, sweep}, nil
}

// Fig11 reproduces Figure 11: PI* versus the cluster size on Denmark.
func (r *Runner) Fig11() (*Table, error) {
	g := r.Network(gen.Denmark)
	t := &Table{ID: "fig11", Title: "PI* vs cluster size (Denmark)", Header: []string{
		"cluster pages", "response (s)", "space (MB)", "fits scaled limit"}}
	limit := r.ScaledSizeLimit()
	for _, rw := range piStarRows(2, 4, 8, 12, 16, 20) {
		sv, agg, err := r.measure(g, rw)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(rw.cfg.ClusterPages), Secs(agg.Response), MB(sv.Bytes), fmt.Sprint(sv.Bytes <= limit))
	}
	ciRef, aggCI, err := r.measure(g, rowCI)
	if err != nil {
		return nil, err
	}
	t.AddRow("CI (reference)", Secs(aggCI.Response), MB(ciRef.Bytes), "true")
	t.Notes = append(t.Notes, PaperFindings["fig11"])
	return t, nil
}

// Fig12 reproduces Figure 12: CI, HY and PI* on the three largest networks,
// with HY and PI* tuned to the (scaled) size budget.
func (r *Runner) Fig12() (*Table, error) {
	t := &Table{ID: "fig12", Title: "Performance on larger networks", Header: []string{
		"network", "method", "response (s)", "space (MB)"}}
	limit := r.ScaledSizeLimit()
	for _, p := range []gen.Preset{gen.Denmark, gen.India, gen.NorthAmerica} {
		g := r.Network(p)
		_, m, err := r.SetSizeHistogram(g)
		if err != nil {
			return nil, err
		}
		// CI has no knob; HY and PI* are tuned to the budget.
		for _, candidates := range [][]row{{rowCI}, hyRows(m, 16, 8, 4, 2, 1), piStarRows(2, 4, 8, 12, 16, 20)} {
			sv, err := r.fastestFitting(g, limit, candidates)
			if err != nil {
				return nil, err
			}
			agg, err := r.RunWorkload(g, sv.Query)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", PresetName(p), sv.Name, err)
			}
			t.AddRow(PresetName(p), sv.Name, Secs(agg.Response), MB(sv.Bytes))
		}
	}
	t.Notes = append(t.Notes, PaperFindings["fig12"],
		fmt.Sprintf("HY and PI* tuned to the scaled size limit of %s MB", MB(limit)))
	return t, nil
}

// fastestFitting builds candidates, fastest first, and returns the first
// whose database fits the budget, or the last when none does (flagged by its
// size in the table): §7.5's tuning rule for HY's threshold and PI*'s
// cluster size.
func (r *Runner) fastestFitting(g *graph.Graph, limit int64, candidates []row) (Servable, error) {
	var sv Servable
	for _, rw := range candidates {
		var err error
		if sv, err = r.Build(rw.name, g, rw.cfg); err != nil || sv.Bytes <= limit {
			return sv, err
		}
	}
	return sv, nil
}

// step is one runnable experiment.
type step struct {
	id  string
	run func(*Runner) ([]*Table, error)
}

// steps are the experiments in paper order; RunAll, Run and IDs read them.
var steps = []step{
	{"table1", one((*Runner).Table1)},
	{"fig5", one((*Runner).Fig5)},
	{"table3", one((*Runner).Table3)},
	{"fig6", one((*Runner).Fig6)},
	{"fig7", one((*Runner).Fig7)},
	{"fig8", one((*Runner).Fig8)},
	{"fig9", one((*Runner).Fig9)},
	{"fig10", (*Runner).Fig10},
	{"fig11", one((*Runner).Fig11)},
	{"fig12", one((*Runner).Fig12)},
	{"ext", one((*Runner).Extensions)},
}

// one adapts a single-table experiment to a step.
func one(f func(*Runner) (*Table, error)) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		t, err := f(r)
		return []*Table{t}, err
	}
}

// RunAll executes every experiment in paper order, rendering each table.
func (r *Runner) RunAll(w io.Writer) error {
	fmt.Fprintf(w, "reproduction run: scale=%.3f queries=%d seed=%d\n\n",
		r.Cfg.Scale, r.Cfg.Queries, r.Cfg.Seed)
	for _, s := range steps {
		if err := r.render(s, w); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one named experiment.
func (r *Runner) Run(id string, w io.Writer) error {
	for _, s := range steps {
		if s.id == id {
			return r.render(s, w)
		}
	}
	return fmt.Errorf("exp: unknown experiment %q (want one of %s)", id, strings.Join(IDs(), ", "))
}

func (r *Runner) render(s step, w io.Writer) error {
	tables, err := s.run(r)
	if err != nil {
		return fmt.Errorf("%s: %w", s.id, err)
	}
	for _, t := range tables {
		t.Render(w)
	}
	return nil
}

// IDs lists the runnable experiments in paper order.
func IDs() []string {
	ids := make([]string, len(steps))
	for i, s := range steps {
		ids[i] = s.id
	}
	return ids
}
