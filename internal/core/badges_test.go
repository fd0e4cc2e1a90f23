package core

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/hub"
)

func TestAssessBadgesAllEarned(t *testing.T) {
	f := New()
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	report, err := f.AssessBadges(context.Background(), hub.NewClient(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 5 {
		t.Fatalf("results = %d, want 5", len(report.Results))
	}
	earned := report.Earned()
	if len(earned) != 5 {
		t.Errorf("earned %d badges, want all 5:\n%s", len(earned), report)
	}
	out := report.String()
	for _, want := range []string{
		"Functional", "Reusable", "Available", "Replicated", "Reproduced",
		"byte-identical to native",
		"user-supplied model",
		"digest verified",
		"reproduces the build host's results",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Every earned line carries its evidence.
	if strings.Count(out, "[✓]") != 5 {
		t.Errorf("report marks:\n%s", out)
	}
}

func TestBadgeReportRendersFailures(t *testing.T) {
	r := &BadgeReport{Results: []BadgeResult{
		{Badge: BadgeFunctional, Earned: true, Evidence: []string{"ok"}},
		{Badge: BadgeAvailable, Earned: false, Evidence: []string{"pull failed"}},
	}}
	out := r.String()
	if !strings.Contains(out, "[✓] Artifacts Evaluated — Functional") {
		t.Errorf("out:\n%s", out)
	}
	if !strings.Contains(out, "[✗] Artifacts Available") {
		t.Errorf("out:\n%s", out)
	}
	if len(r.Earned()) != 1 {
		t.Errorf("earned = %v", r.Earned())
	}
}
