package benchrec

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"asyncsyn/internal/bench"
)

// The generated sections of EXPERIMENTS.md are delimited by marker
// comments; RenderDoc replaces everything between each pair. Text
// outside the markers is never touched, so the surrounding prose stays
// hand-written.
const (
	beginMarker = "<!-- BEGIN GENERATED: %s (do not hand-edit; regenerate with go run ./cmd/bench -render) -->"
	endMarker   = "<!-- END GENERATED: %s -->"
)

// RenderDoc returns doc with every generated section the record covers
// (table1 and aggregate from Rows, clauses from Clauses, scaling from
// Scaling) replaced by content rendered from rec. Rendering is a pure
// function of the record: the same record always produces byte-equal
// output. A section whose markers are missing from doc is an error; a
// section the record has no data for is left untouched.
func RenderDoc(doc []byte, rec *Record) ([]byte, error) {
	sections := map[string]string{
		"table1":    Table1Section(rec),
		"aggregate": AggregateSection(rec),
	}
	if len(rec.Clauses) > 0 {
		sections["clauses"] = ClausesSection(rec)
	}
	if len(rec.Scaling) > 0 {
		sections["scaling"] = ScalingSection(rec)
	}
	for _, name := range []string{"table1", "aggregate", "clauses", "scaling"} {
		body, ok := sections[name]
		if !ok {
			continue
		}
		var err error
		doc, err = replaceSection(doc, name, body)
		if err != nil {
			return nil, err
		}
	}
	return doc, nil
}

func replaceSection(doc []byte, name, body string) ([]byte, error) {
	begin := []byte(fmt.Sprintf(beginMarker, name))
	end := []byte(fmt.Sprintf(endMarker, name))
	i := bytes.Index(doc, begin)
	if i < 0 {
		return nil, fmt.Errorf("benchrec: document has no %q begin marker", name)
	}
	j := bytes.Index(doc, end)
	if j < 0 || j < i {
		return nil, fmt.Errorf("benchrec: document has no %q end marker after the begin marker", name)
	}
	var out bytes.Buffer
	out.Write(doc[:i+len(begin)])
	out.WriteString("\n")
	out.WriteString(body)
	out.Write(doc[j:])
	return out.Bytes(), nil
}

// Table1Section renders the measured-vs-paper Table 1 markdown table.
func Table1Section(rec *Record) string {
	var b strings.Builder
	b.WriteString("| STG | init st/sig | modular (ours) | direct (Vanbekbergen) | Lavagno-style | paper: modular | paper: direct | paper: Lavagno |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, row := range rec.Rows {
		e, _ := bench.Find(row.Name)
		fmt.Fprintf(&b, "| %s | %d/%d | %s | %s | %s | %s | %s | %s |\n",
			row.Name, row.InitialStates, row.InitialSignals,
			methodCell(row.Modular), methodCell(row.Direct), methodCell(row.Lavagno),
			paperOursCell(e.Ours), paperDirectCell(e.Vanbekbergen), paperLavagnoCell(e.Lavagno))
	}
	return b.String()
}

// methodCell renders one measured run as states/signals/area/cpu.
func methodCell(m MethodResult) string {
	switch {
	case m.Error != "":
		return "err"
	case m.Aborted:
		return fmt.Sprintf("**abort** (%.2f)", m.Seconds)
	default:
		return fmt.Sprintf("%d/%d/%d/%.2f", m.States, m.Signals, m.Area, m.Seconds)
	}
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func paperOursCell(p bench.Paper) string {
	return fmt.Sprintf("%d/%d/%d/%s", p.States, p.Signals, p.Area, fmtG(p.CPU))
}

func paperDirectCell(p bench.Paper) string {
	if p.Note != "" {
		return paperNoteCell(p)
	}
	return fmt.Sprintf("%d/%d/%d/%s", p.States, p.Signals, p.Area, fmtG(p.CPU))
}

func paperLavagnoCell(p bench.Paper) string {
	if p.Note != "" {
		return paperNoteCell(p)
	}
	return fmt.Sprintf("%d sig/%d/%s", p.Signals, p.Area, fmtG(p.CPU))
}

func paperNoteCell(p bench.Paper) string {
	switch {
	case strings.Contains(p.Note, "backtrack"):
		if p.CPU > 0 {
			return fmt.Sprintf("**abort** (%s)", fmtG(p.CPU))
		}
		return "**abort**"
	case strings.Contains(p.Note, "non-free-choice"):
		return "non-free-choice"
	default:
		return "internal error"
	}
}

// AggregateSection renders the aggregate area/time comparison (the
// paper's "12% / 9%" claims) computed over the record's completed rows.
func AggregateSection(rec *Record) string {
	var areaMD, areaD, areaML, areaL int
	var cpuMD, cpuD, cpuML, cpuL float64
	var nD, nL int
	for _, row := range rec.Rows {
		m := row.Modular
		if !m.Completed() {
			continue
		}
		if d := row.Direct; d.Completed() {
			areaMD += m.Area
			areaD += d.Area
			cpuMD += m.Seconds
			cpuD += d.Seconds
			nD++
		}
		if l := row.Lavagno; l.Completed() {
			areaML += m.Area
			areaL += l.Area
			cpuML += m.Seconds
			cpuL += l.Seconds
			nL++
		}
	}
	var b strings.Builder
	b.WriteString("```\n")
	fmt.Fprintf(&b, "benchmarks where both modular and direct complete: %d\n", nD)
	if areaD > 0 && cpuMD > 0 {
		fmt.Fprintf(&b, "  area  modular %d vs direct %d  (%.1f%% reduction; paper reports 12%%)\n",
			areaMD, areaD, 100*(1-float64(areaMD)/float64(areaD)))
		fmt.Fprintf(&b, "  cpu   modular %.2fs vs direct %.2fs (%.1fx)\n", cpuMD, cpuD, cpuD/cpuMD)
	}
	fmt.Fprintf(&b, "benchmarks where both modular and lavagno-style complete: %d\n", nL)
	if areaL > 0 && cpuML > 0 {
		fmt.Fprintf(&b, "  area  modular %d vs lavagno %d  (%.1f%% reduction; paper reports 9%%)\n",
			areaML, areaL, 100*(1-float64(areaML)/float64(areaL)))
		fmt.Fprintf(&b, "  cpu   modular %.2fs vs lavagno %.2fs (%.1fx)\n", cpuML, cpuL, cpuL/cpuML)
	}
	if len(rec.Cache) > 0 {
		var cold, warm, coldMod, warmMod float64
		var hits, misses int64
		match := true
		for _, cr := range rec.Cache {
			cold += cr.ColdSeconds
			warm += cr.WarmSeconds
			coldMod += cr.ColdModuleSeconds
			warmMod += cr.WarmModuleSeconds
			hits += cr.Hits
			misses += cr.Misses
			match = match && cr.DigestMatch
		}
		fmt.Fprintf(&b, "solve cache (same suite re-run against a warm cache, %d benchmarks):\n", len(rec.Cache))
		fmt.Fprintf(&b, "  module-solve stage %.3fs cold vs %.3fs warm", coldMod, warmMod)
		if warmMod > 0 {
			fmt.Fprintf(&b, " (%.1fx)", coldMod/warmMod)
		}
		fmt.Fprintf(&b, "; whole run %.2fs vs %.2fs\n", cold, warm)
		fmt.Fprintf(&b, "  warm-run hits/misses %d/%d; digests bit-identical: %v\n", hits, misses, match)
	}
	b.WriteString("```\n")
	return b.String()
}

// ClausesSection renders the formula-size table (paper-style expanded
// CNF: the direct method's one large formula vs the modular formulas).
func ClausesSection(rec *Record) string {
	var b strings.Builder
	b.WriteString("| STG | direct formula | modular formulas (clauses/vars) |\n")
	b.WriteString("|---|---|---|\n")
	for _, cl := range rec.Clauses {
		mods := make([]string, len(cl.Modular))
		for i, f := range cl.Modular {
			mods[i] = fmt.Sprintf("%s/%s", commas(f.Clauses), commas(f.Vars))
		}
		fmt.Fprintf(&b, "| %s | **%s cls / %s vars** | %s |\n",
			cl.Name, commas(cl.DirectClauses), commas(cl.DirectVars), strings.Join(mods, " · "))
	}
	return b.String()
}

// ScalingSection renders the parametric handshake sweep. The spec
// columns are the schema-5 re-run of the modular method under the
// since-deleted speculative scheduler (Workers=4); records without
// ModularSpec cells render dashes there.
func ScalingSection(rec *Record) string {
	var b strings.Builder
	b.WriteString("```\n")
	fmt.Fprintf(&b, "%3s %8s | %11s %9s %8s %9s | %9s %9s | %11s %8s | %11s\n",
		"k", "states", "modular-cpu", "mod-stage", "mod-area", "mod-peak",
		"spec-cpu", "spec-stage", "direct-cpu", "dir-area", "lavagno-cpu")
	for _, s := range rec.Scaling {
		mc, ma := scalCell(s.Modular)
		dc, da := scalCell(s.Direct)
		lc, _ := scalCell(s.Lavagno)
		sc, ss := "-", "-"
		if s.ModularSpec != nil {
			sc, _ = scalCell(*s.ModularSpec)
			ss = stageCell(*s.ModularSpec)
		}
		fmt.Fprintf(&b, "%3d %8d | %11s %9s %8s %9s | %9s %9s | %11s %8s | %11s\n",
			s.K, s.States, mc, stageCell(s.Modular), ma, peakCell(s.Modular),
			sc, ss, dc, da, lc)
	}
	b.WriteString("```\n")
	return b.String()
}

// stageCell renders a cell's module-stage time; pre-schema-5 records
// and aborted cells carry zero and render as a dash.
func stageCell(c ScalCell) string {
	if c.ModuleSeconds == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fs", c.ModuleSeconds)
}

func scalCell(c ScalCell) (cpu, area string) {
	if c.Aborted {
		return "abort", "-"
	}
	return fmt.Sprintf("%.2fs", c.Seconds), fmt.Sprint(c.Area)
}

// peakCell renders a sampled peak heap in MiB; pre-schema-4 records and
// unmeasured cells carry zero and render as a dash.
func peakCell(c ScalCell) string {
	if c.PeakHeapBytes == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0fMiB", float64(c.PeakHeapBytes)/(1<<20))
}

// commas formats n with thousands separators.
func commas(n int) string {
	s := strconv.Itoa(n)
	if n < 0 {
		return "-" + commas(-n)
	}
	var b strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(r)
	}
	return b.String()
}
