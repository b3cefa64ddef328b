package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// The experiment suite is the executable form of EXPERIMENTS.md: each
// report's Pass flag asserts the paper's claimed shape on a fixed seed.

func TestE1Figure1(t *testing.T) {
	rep := E1(11)
	if !rep.Pass {
		t.Fatalf("E1 failed:\n%s", rep)
	}
	if len(rep.Plots) != 2 {
		t.Fatalf("E1 should render both Figure-1 panels, got %d", len(rep.Plots))
	}
}

func TestE2DesignTrace(t *testing.T) {
	rep := E2(11)
	if !rep.Pass {
		t.Fatalf("E2 failed:\n%s", rep)
	}
	if !strings.Contains(rep.Table.String(), "stage") {
		t.Fatal("E2 table missing")
	}
}

func TestE3ExactCycle(t *testing.T) {
	rep := E3()
	if !rep.Pass {
		t.Fatalf("E3 failed:\n%s", rep)
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "2/3") {
			found = true
		}
	}
	if !found {
		t.Fatal("E3 notes missing the exact 2/3 sum")
	}
}

func TestE4Convergence(t *testing.T) {
	rep := E4(11)
	if !rep.Pass {
		t.Fatalf("E4 failed:\n%s", rep)
	}
}

func TestE5SymmetricPotential(t *testing.T) {
	rep := E5(11)
	if !rep.Pass {
		t.Fatalf("E5 failed:\n%s", rep)
	}
}

func TestE6BetterEquilibrium(t *testing.T) {
	rep := E6(11)
	if !rep.Pass {
		t.Fatalf("E6 failed:\n%s", rep)
	}
}

func TestE7DesignTermination(t *testing.T) {
	rep := E7(11)
	if !rep.Pass {
		t.Fatalf("E7 failed:\n%s", rep)
	}
}

func TestE8ConvergenceSpeed(t *testing.T) {
	rep := E8(11)
	if !rep.Pass {
		t.Fatalf("E8 failed:\n%s", rep)
	}
}

func TestE9WhaleROI(t *testing.T) {
	rep := E9(11)
	if !rep.Pass {
		t.Fatalf("E9 failed:\n%s", rep)
	}
}

func TestE10Asymmetric(t *testing.T) {
	rep := E10(11)
	if !rep.Pass {
		t.Fatalf("E10 failed:\n%s", rep)
	}
}

func TestReportString(t *testing.T) {
	rep := E3()
	out := rep.String()
	for _, want := range []string{"E3", "PASS", "claim:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	reports := Selected(11, nil)
	if len(reports) != 13 {
		t.Fatalf("Selected returned %d reports", len(reports))
	}
	for i, rep := range reports {
		if want := fmt.Sprintf("E%d", i+1); rep.ID != want {
			t.Errorf("report %d is %s, want %s", i, rep.ID, want)
		}
		if !rep.Pass {
			t.Errorf("%s failed:\n%s", rep.ID, rep)
		}
	}
}

// TestSelectedParallelMatchesSelected: the engine-backed runner returns the
// reports Selected does, in suite order whatever the filter's order, and an
// ID outside the suite selects nothing.
func TestSelectedParallelMatchesSelected(t *testing.T) {
	only := map[string]bool{"E10": true, "E3": true, "E99": true}
	seq := Selected(11, only)
	par, err := SelectedParallel(context.Background(), 11, 3, only)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 || seq[0].ID != "E3" || seq[1].ID != "E10" {
		t.Fatalf("Selected kept %d reports, want E3 then E10", len(seq))
	}
	if len(par) != len(seq) {
		t.Fatalf("SelectedParallel returned %d reports, Selected %d", len(par), len(seq))
	}
	for i := range seq {
		if got, want := par[i].String(), seq[i].String(); got != want {
			t.Errorf("report %d differs:\nparallel:\n%s\nsequential:\n%s", i, got, want)
		}
	}
}

func TestE11SecurityTrajectory(t *testing.T) {
	rep := E11(11)
	if !rep.Pass {
		t.Fatalf("E11 failed:\n%s", rep)
	}
}

func TestE12SimultaneousAblation(t *testing.T) {
	rep := E12(11)
	if !rep.Pass {
		t.Fatalf("E12 failed:\n%s", rep)
	}
}

func TestE13NaiveBaselineAblation(t *testing.T) {
	rep := E13(11)
	if !rep.Pass {
		t.Fatalf("E13 failed:\n%s", rep)
	}
}
