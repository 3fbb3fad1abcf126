package telemetry

import (
	"encoding/json"
	"expvar"
	"testing"
)

// expvarJSON fetches one published expvar by name and decodes its JSON.
func expvarJSON(t *testing.T, name string) map[string]any {
	t.Helper()
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %q not published", name)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(v.String()), &out); err != nil {
		t.Fatalf("expvar %q is not valid JSON: %v", name, err)
	}
	return out
}

func TestPublishExpvarCarriesTrace(t *testing.T) {
	// The default registry publishes under "rankties" with the trace ring,
	// and repeat publication is a no-op rather than expvar's duplicate-name
	// panic.
	PublishExpvar()
	PublishExpvar()

	GetCounter("test.expvar.counter").ForceAdd(7)
	doc := expvarJSON(t, "rankties")
	if _, ok := doc["trace"]; !ok {
		t.Errorf("default publication should carry the trace ring, got keys %v", doc)
	}
	tel, ok := doc["telemetry"].(map[string]any)
	if !ok {
		t.Fatalf("publication missing telemetry snapshot: %v", doc)
	}
	counters, _ := tel["counters"].(map[string]any)
	if got := counters["test.expvar.counter"]; got != float64(7) {
		t.Errorf("default registry counter = %v, want 7", got)
	}
}
