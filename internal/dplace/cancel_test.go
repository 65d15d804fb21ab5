package dplace

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/topology"
)

// A pre-closed cancel channel must abort Refine before any window is
// refined — the "already-expired deadline does zero placement work"
// half of the deadline contract.
func TestRefinePreCancelledDoesNoWork(t *testing.T) {
	dev := topology.Small()[0]
	n := legalized(t, dev)
	done := make(chan struct{})
	close(done)
	p := DefaultParams()
	p.Cancel = done
	res, err := Refine(n, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Refine with closed cancel: err = %v, want context.Canceled", err)
	}
	if res.Accepted != 0 || res.Passes != 0 {
		t.Fatalf("cancelled Refine did work: %+v", res)
	}
}

// Cancelling mid-run aborts promptly: the scan checks the channel
// before every window, so a close that lands mid-refinement must
// surface context.Canceled well before MaxPasses full passes complete.
func TestRefineCancelMidRunAborts(t *testing.T) {
	// The largest available topology keeps refinement busy long enough
	// for a close landing a few ms in to be observably mid-run.
	devs := testDevices()
	dev := devs[len(devs)-1]
	n := legalized(t, dev)
	done := make(chan struct{})
	p := DefaultParams()
	p.MaxPasses = 50 // plenty of passes for the close to land inside
	p.Cancel = done
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(done)
	}()
	start := time.Now()
	res, err := Refine(n, p)
	dur := time.Since(start)
	if err == nil {
		// The whole refinement beat the close — legal on a very fast
		// machine with a clean layout, nothing to assert.
		t.Skipf("refinement finished in %v before cancellation landed", dur)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Passes >= p.MaxPasses {
		t.Fatalf("cancelled Refine still ran all %d passes", res.Passes)
	}
}
