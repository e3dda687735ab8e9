package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/base"
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

// Fig5 reproduces Figure 5: LM fine-tuning on Argentina — response time and
// space versus the number of landmarks.
func (r *Runner) Fig5() (*Table, error) {
	g := r.Network(gen.Argentina)
	t := &Table{ID: "fig5", Title: "LM fine-tuning (Argentina)", Header: []string{
		"landmarks", "response (s)", "space (MB)", "plan pages"}}
	for _, k := range []int{1, 2, 3, 5, 8, 12, 16, 20} {
		sv, err := r.BuildLM(g, k)
		if err != nil {
			return nil, err
		}
		agg, err := r.RunWorkload(g, sv.Query)
		if err != nil {
			return nil, fmt.Errorf("fig5 k=%d: %w", k, err)
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
	builds := []struct {
		name  string
		build func() (Servable, error)
	}{
		{"AF", func() (Servable, error) { return r.BuildAF(g, 8) }},
		{"LM", func() (Servable, error) { return r.BuildLM(g, 5) }},
		{"CI", func() (Servable, error) { return r.BuildCI(g, true, true) }},
		{"PI", func() (Servable, error) { return r.BuildPI(g, 1, true, true) }},
	}
	for _, b := range builds {
		sv, err := b.build()
		if err != nil {
			return nil, err
		}
		agg, err := r.RunWorkload(g, sv.Query)
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", b.name, err)
		}
		fdPages, fiPages := 0, 0
		if f := sv.DB.File(base.FileData); f != nil {
			fdPages = f.NumPages()
		}
		if f := sv.DB.File(base.FileIndex); f != nil {
			fiPages = f.NumPages()
		}
		paper := PaperTable3[b.name]
		t.AddRow(b.name,
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
			return nil, fmt.Errorf("fig6 k=%d: %w", k, err)
		}
		t.AddRow(sv.Name, Secs(agg.Response))
	}
	for _, b := range []struct {
		name  string
		build func() (Servable, error)
	}{
		{"CI", func() (Servable, error) { return r.BuildCI(g, true, true) }},
		{"PI", func() (Servable, error) { return r.BuildPI(g, 1, true, true) }},
	} {
		sv, err := b.build()
		if err != nil {
			return nil, err
		}
		agg, err := r.RunWorkload(g, sv.Query)
		if err != nil {
			return nil, err
		}
		t.AddRow(b.name+" (reference)", Secs(agg.Response))
	}
	t.Notes = append(t.Notes, PaperFindings["fig6"],
		"OBF additionally leaks the |S|x|T| candidate sets; the PIR schemes leak nothing.")
	return t, nil
}

// Fig7 reproduces Figure 7: the four methods across Oldenburg, Germany and
// Argentina.
func (r *Runner) Fig7() (*Table, error) {
	t := &Table{ID: "fig7", Title: "Performance on different road networks", Header: []string{
		"network", "method", "response (s)", "space (MB)"}}
	for _, p := range []gen.Preset{gen.Oldenburg, gen.Germany, gen.Argentina} {
		g := r.Network(p)
		for _, b := range []struct {
			name  string
			build func() (Servable, error)
		}{
			{"AF", func() (Servable, error) { return r.BuildAF(g, 8) }},
			{"LM", func() (Servable, error) { return r.BuildLM(g, 5) }},
			{"CI", func() (Servable, error) { return r.BuildCI(g, true, true) }},
			{"PI", func() (Servable, error) { return r.BuildPI(g, 1, true, true) }},
		} {
			sv, err := b.build()
			if err != nil {
				return nil, err
			}
			agg, err := r.RunWorkload(g, sv.Query)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s/%s: %w", PresetName(p), b.name, err)
			}
			t.AddRow(PresetName(p), b.name, Secs(agg.Response), MB(sv.Bytes))
		}
	}
	t.Notes = append(t.Notes, PaperFindings["fig7"])
	return t, nil
}

// Fig8 reproduces Figure 8: the effect of packed partitioning (CI/PI versus
// their plain-KD-tree -P variants).
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{ID: "fig8", Title: "Effect of packed partitioning", Header: []string{
		"network", "method", "Fd utilization (%)", "response (s)", "space (MB)"}}
	for _, p := range []gen.Preset{gen.Oldenburg, gen.Germany, gen.Argentina} {
		g := r.Network(p)
		for _, b := range []struct {
			name   string
			packed bool
			isPI   bool
		}{
			{"CI", true, false}, {"CI-P", false, false},
			{"PI", true, true}, {"PI-P", false, true},
		} {
			var sv Servable
			var err error
			if b.isPI {
				sv, err = r.BuildPI(g, 1, b.packed, true)
			} else {
				sv, err = r.BuildCI(g, b.packed, true)
			}
			if err != nil {
				return nil, err
			}
			agg, err := r.RunWorkload(g, sv.Query)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s/%s: %w", PresetName(p), b.name, err)
			}
			t.AddRow(PresetName(p), b.name,
				fmt.Sprintf("%.1f", 100*Utilization(g, sv.DB)),
				Secs(agg.Response), MB(sv.Bytes))
		}
	}
	t.Notes = append(t.Notes, PaperFindings["fig8"])
	return t, nil
}

// Fig9 reproduces Figure 9: the effect of index compression (CI/PI versus
// their uncompressed -C variants).
func (r *Runner) Fig9() (*Table, error) {
	t := &Table{ID: "fig9", Title: "Effect of compression", Header: []string{
		"network", "method", "response (s)", "space (MB)"}}
	for _, p := range []gen.Preset{gen.Oldenburg, gen.Germany, gen.Argentina} {
		g := r.Network(p)
		for _, b := range []struct {
			name     string
			compress bool
			isPI     bool
		}{
			{"CI", true, false}, {"CI-C", false, false},
			{"PI", true, true}, {"PI-C", false, true},
		} {
			var sv Servable
			var err error
			if b.isPI {
				sv, err = r.BuildPI(g, 1, true, b.compress)
			} else {
				sv, err = r.BuildCI(g, true, b.compress)
			}
			if err != nil {
				return nil, err
			}
			agg, err := r.RunWorkload(g, sv.Query)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s/%s: %w", PresetName(p), b.name, err)
			}
			t.AddRow(PresetName(p), b.name, Secs(agg.Response), MB(sv.Bytes))
		}
	}
	t.Notes = append(t.Notes, PaperFindings["fig9"])
	return t, nil
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
	for _, frac := range []int{8, 4, 2, 1} {
		th := m / frac
		if th < 1 {
			th = 1
		}
		sv, err := r.BuildHY(g, th)
		if err != nil {
			return nil, err
		}
		agg, err := r.RunWorkload(g, sv.Query)
		if err != nil {
			return nil, fmt.Errorf("fig10 th=%d: %w", th, err)
		}
		sweep.AddRow(fmt.Sprint(th), Secs(agg.Response), MB(sv.Bytes), fmt.Sprint(sv.Bytes <= limit))
	}
	ciRef, err := r.BuildCI(g, true, true)
	if err != nil {
		return nil, err
	}
	aggCI, err := r.RunWorkload(g, ciRef.Query)
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
	for _, c := range []int{2, 4, 8, 12, 16, 20} {
		sv, err := r.BuildPI(g, c, true, true)
		if err != nil {
			return nil, err
		}
		agg, err := r.RunWorkload(g, sv.Query)
		if err != nil {
			return nil, fmt.Errorf("fig11 c=%d: %w", c, err)
		}
		t.AddRow(fmt.Sprint(c), Secs(agg.Response), MB(sv.Bytes), fmt.Sprint(sv.Bytes <= limit))
	}
	ciRef, err := r.BuildCI(g, true, true)
	if err != nil {
		return nil, err
	}
	aggCI, err := r.RunWorkload(g, ciRef.Query)
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

		ciSv, err := r.BuildCI(g, true, true)
		if err != nil {
			return nil, err
		}
		aggCI, err := r.RunWorkload(g, ciSv.Query)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s/CI: %w", PresetName(p), err)
		}
		t.AddRow(PresetName(p), "CI", Secs(aggCI.Response), MB(ciSv.Bytes))

		hySv, err := r.tuneHY(g, limit)
		if err != nil {
			return nil, err
		}
		aggHY, err := r.RunWorkload(g, hySv.Query)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s/HY: %w", PresetName(p), err)
		}
		t.AddRow(PresetName(p), hySv.Name, Secs(aggHY.Response), MB(hySv.Bytes))

		piSv, err := r.tunePIStar(g, limit)
		if err != nil {
			return nil, err
		}
		aggPI, err := r.RunWorkload(g, piSv.Query)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s/PI*: %w", PresetName(p), err)
		}
		t.AddRow(PresetName(p), piSv.Name, Secs(aggPI.Response), MB(piSv.Bytes))
	}
	t.Notes = append(t.Notes, PaperFindings["fig12"],
		fmt.Sprintf("HY and PI* tuned to the scaled size limit of %s MB", MB(limit)))
	return t, nil
}

// tuneHY finds the smallest threshold (fastest responses) whose database
// fits the budget, mirroring §7.5's tuning rule.
func (r *Runner) tuneHY(gr *graph.Graph, limit int64) (Servable, error) {
	sizes, m, err := r.SetSizeHistogram(gr)
	if err != nil {
		return Servable{}, err
	}
	_ = sizes
	var best Servable
	found := false
	for _, frac := range []int{16, 8, 4, 2, 1} {
		th := m / frac
		if th < 1 {
			th = 1
		}
		sv, err := r.BuildHY(gr, th)
		if err != nil {
			return Servable{}, err
		}
		if sv.Bytes <= limit {
			return sv, nil // smallest threshold that fits = fastest feasible
		}
		best, found = sv, true
	}
	if found {
		return best, nil // nothing fits; report the closest and flag via size
	}
	return r.BuildHY(gr, m)
}

// tunePIStar finds the smallest cluster size (fastest) whose index fits.
func (r *Runner) tunePIStar(gr *graph.Graph, limit int64) (Servable, error) {
	var last Servable
	for _, c := range []int{2, 4, 8, 12, 16, 20} {
		sv, err := r.BuildPI(gr, c, true, true)
		if err != nil {
			return Servable{}, err
		}
		last = sv
		if sv.Bytes <= limit {
			return sv, nil
		}
	}
	return last, nil
}

// RunAll executes every experiment in paper order, rendering each table.
func (r *Runner) RunAll(w io.Writer) error {
	fmt.Fprintf(w, "reproduction run: scale=%.3f queries=%d seed=%d\n\n",
		r.Cfg.Scale, r.Cfg.Queries, r.Cfg.Seed)
	type multi func() ([]*Table, error)
	single := func(f func() (*Table, error)) multi {
		return func() ([]*Table, error) {
			t, err := f()
			if err != nil {
				return nil, err
			}
			return []*Table{t}, nil
		}
	}
	steps := []struct {
		name string
		run  multi
	}{
		{"table1", single(r.Table1)},
		{"fig5", single(r.Fig5)},
		{"table3", single(r.Table3)},
		{"fig6", single(r.Fig6)},
		{"fig7", single(r.Fig7)},
		{"fig8", single(r.Fig8)},
		{"fig9", single(r.Fig9)},
		{"fig10", r.Fig10},
		{"fig11", single(r.Fig11)},
		{"fig12", single(r.Fig12)},
		{"ext", single(r.Extensions)},
	}
	for _, s := range steps {
		tables, err := s.run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for _, t := range tables {
			t.Render(w)
		}
	}
	return nil
}

// Run executes one named experiment.
func (r *Runner) Run(id string, w io.Writer) error {
	switch id {
	case "table1":
		return renderOne(w)(r.Table1())
	case "fig5":
		return renderOne(w)(r.Fig5())
	case "table3":
		return renderOne(w)(r.Table3())
	case "fig6":
		return renderOne(w)(r.Fig6())
	case "fig7":
		return renderOne(w)(r.Fig7())
	case "fig8":
		return renderOne(w)(r.Fig8())
	case "fig9":
		return renderOne(w)(r.Fig9())
	case "fig10":
		tables, err := r.Fig10()
		if err != nil {
			return err
		}
		for _, t := range tables {
			t.Render(w)
		}
		return nil
	case "fig11":
		return renderOne(w)(r.Fig11())
	case "fig12":
		return renderOne(w)(r.Fig12())
	case "ext":
		return renderOne(w)(r.Extensions())
	default:
		return fmt.Errorf("exp: unknown experiment %q (want table1, table3, fig5..fig12)", id)
	}
}

func renderOne(w io.Writer) func(*Table, error) error {
	return func(t *Table, err error) error {
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}
}

// IDs lists the runnable experiments in paper order.
func IDs() []string {
	ids := []string{"table1", "fig5", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ext"}
	sort.Strings(ids)
	return ids
}
