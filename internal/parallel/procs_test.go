package parallel

import (
	"runtime"
	"testing"
)

func TestAtLeastProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	restore := AtLeastProcs(prev + 3)
	if got := runtime.GOMAXPROCS(0); got != prev+3 {
		t.Fatalf("raised GOMAXPROCS = %d, want %d", got, prev+3)
	}
	restore()
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Fatalf("restored GOMAXPROCS = %d, want %d", got, prev)
	}
	// A ceiling already high enough is left alone, and so is its restore.
	AtLeastProcs(1)()
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Fatalf("AtLeastProcs(1) changed GOMAXPROCS to %d, want %d", got, prev)
	}
}
