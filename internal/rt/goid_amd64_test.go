package rt

import (
	"runtime"
	"testing"
)

// TestGoidCalibrated: on amd64 goid must take the field read. A silent
// fallback to the parser would keep every report right and make every
// resolution a thousand times slower.
func TestGoidCalibrated(t *testing.T) {
	if goidOff < 0 {
		t.Fatalf("goid offset calibration failed on %s; identity falls back to parsing runtime.Stack", runtime.Version())
	}
}
