package core

import (
	"context"
	"errors"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/trace"
)

// errDeadline stands in for the engine's typed ErrJobTimeout: the core
// layer must preserve whatever cause the caller installed.
var errDeadline = errors.New("test: deadline")

func cancelledCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errDeadline)
	return ctx
}

// TestSolveCancelledContext checks a pre-cancelled context stops Solve
// with an error that still wraps the installed cause — never a bogus
// "not schedulable" verdict.
func TestSolveCancelledContext(t *testing.T) {
	_, err := Solve(figures.Figure5(), Options{Ctx: cancelledCtx(t)})
	if err == nil {
		t.Fatal("Solve with cancelled ctx succeeded")
	}
	if !errors.Is(err, errDeadline) {
		t.Fatalf("cause lost through Solve: %v", err)
	}
	var nse *NotSchedulableError
	if errors.As(err, &nse) {
		// If the sweep surfaced the cancellation as a schedulability
		// failure, the typed cause must still unwrap from it.
		if !errors.Is(nse, errDeadline) {
			t.Fatalf("NotSchedulableError swallowed the cause: %v", nse)
		}
	}
}

// TestEnumerateReductionsCancelled checks the allocation enumeration
// honours its context.
func TestEnumerateReductionsCancelled(t *testing.T) {
	_, err := EnumerateDistinctReductionsCtx(cancelledCtx(t), figures.Figure5(), 0)
	if !errors.Is(err, errDeadline) {
		t.Fatalf("enumeration ignored cancellation: %v", err)
	}
}

// TestFindCompleteCycleCancelled checks the cycle search bails at a
// sweep boundary with the cause intact.
func TestFindCompleteCycleCancelled(t *testing.T) {
	n := figures.Figure5()
	reds, err := EnumerateDistinctReductions(n, 0)
	if err != nil || len(reds) == 0 {
		t.Fatalf("setup: %v (%d reductions)", err, len(reds))
	}
	rep := CheckReduction(n, reds[0], Options{Ctx: cancelledCtx(t)})
	if rep.Schedulable {
		t.Fatal("cancelled check reported schedulable")
	}
	if rep.Cause == nil || !errors.Is(rep.Cause, errDeadline) {
		t.Fatalf("report cause = %v, want the installed deadline cause", rep.Cause)
	}
}

// TestSolveNilCtxUnchanged guards the default path: no context behaves
// exactly as before (the whole pre-existing suite runs with Ctx nil, but
// make the invariant explicit).
func TestSolveNilCtxUnchanged(t *testing.T) {
	s, err := Solve(figures.Figure5(), Options{})
	if err != nil || len(s.Cycles) == 0 {
		t.Fatalf("baseline solve: %v", err)
	}
}

// TestExploreTracePhases checks Explore records its top-level
// "core/explore" span and nests the per-strategy cycle realisations as
// "core/cycle" detail spans (satellite of the tracing work: the ablation
// benchmarks read these).
func TestExploreTracePhases(t *testing.T) {
	tr := trace.New()
	pts, err := Explore(figures.Figure5(), Options{Trace: tr})
	if err != nil || len(pts) == 0 {
		t.Fatalf("explore: %v (%d points)", err, len(pts))
	}
	rep := tr.Report()
	top, ok := rep.Phase("core/explore")
	if !ok || top.Count == 0 || top.Detail {
		t.Fatalf("core/explore must be a recorded top-level phase: %+v ok=%v", top, ok)
	}
	cyc, ok := rep.Phase("core/cycle")
	if !ok || cyc.Count == 0 || !cyc.Detail {
		t.Fatalf("core/cycle must be a recorded detail phase: %+v ok=%v", cyc, ok)
	}
}

// TestExploreCancelled checks the strategy loop honours cancellation.
func TestExploreCancelled(t *testing.T) {
	_, err := Explore(figures.Figure5(), Options{Ctx: cancelledCtx(t)})
	if !errors.Is(err, errDeadline) {
		t.Fatalf("explore ignored cancellation: %v", err)
	}
}
