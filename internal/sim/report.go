package sim

import (
	"fmt"
	"io"
	"strings"
)

// RenderMarkdown writes the report as a self-contained Markdown document:
// a per-step table, a per-session table, and the aggregates — the artifact
// an experiment run hands to a write-up.
func (r *Report) RenderMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Simulation report: %s\n\n", r.Name)
	fmt.Fprintf(&b, "%d steps, %d sessions, overall mean satisfaction %.3f, %d rejections.\n\n",
		len(r.Steps), len(r.Sessions), r.MeanSatisfaction(), r.TotalRejections())

	b.WriteString("## Per-step\n\n")
	b.WriteString("| step | arrivals | departures | active | mean satisfaction | recompositions | rejections | degraded |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %.3f | %d | %d | %d |\n",
			s.Step, s.Arrivals, s.Departures, s.Active, s.MeanSat, s.Recompositions, s.Rejections, s.Degraded)
	}

	b.WriteString("\n## Per-session\n\n")
	b.WriteString("| session | user | device | arrived | departed | final chain | final satisfaction |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, sess := range r.Sessions {
		departed := "—"
		if sess.DepartStep > 0 {
			departed = fmt.Sprintf("%d", sess.DepartStep)
		}
		chain := sess.FinalPath
		sat := fmt.Sprintf("%.3f", sess.FinalSat)
		if sess.Rejected {
			chain, sat = "*(rejected)*", "—"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %s | %s | %s |\n",
			sess.ID, sess.User, sess.Device, sess.ArriveStep, departed, chain, sat)
	}

	// Satisfaction timelines for sessions that lived more than one step.
	wroteHeader := false
	for _, sess := range r.Sessions {
		if len(sess.Samples) < 2 {
			continue
		}
		if !wroteHeader {
			b.WriteString("\n## Timelines\n")
			wroteHeader = true
		}
		fmt.Fprintf(&b, "\n### %s\n\n| step | chain | satisfaction | recomposed |\n|---|---|---|---|\n", sess.ID)
		for _, s := range sess.Samples {
			mark := ""
			if s.Recomposed {
				mark = "✓"
			}
			fmt.Fprintf(&b, "| %d | %s | %.3f | %s |\n", s.Step, s.Path, s.Satisfaction, mark)
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}
