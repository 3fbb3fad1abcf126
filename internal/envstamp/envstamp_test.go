package envstamp

import (
	"encoding/json"
	"runtime"
	"testing"
)

func TestNewStampFields(t *testing.T) {
	s := New()
	if s.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", s.GoVersion, runtime.Version())
	}
	if s.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("GOMAXPROCS = %d, want %d", s.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
}

func TestStampJSONKeysMatchArtifacts(t *testing.T) {
	// The JSON keys are load-bearing: the BENCH_PR*.json artifacts share them.
	b, err := json.Marshal(Stamp{GoVersion: "go1.x", GOMAXPROCS: 4, Commit: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"go_version", "gomaxprocs", "commit"} {
		if _, ok := m[key]; !ok {
			t.Errorf("stamp JSON missing key %q: %s", key, b)
		}
	}
}
