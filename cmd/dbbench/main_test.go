package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestRunStatsJSON(t *testing.T) {
	was := telemetry.Enabled()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	var out bytes.Buffer
	args := []string{"-n", "120", "-m", "3", "-values", "4", "-k", "2,6", "-trials", "2", "-stats", "-trace"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var doc statsDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(doc.Configs) != 2 {
		t.Fatalf("got %d configs, want 2", len(doc.Configs))
	}
	for _, c := range doc.Configs {
		if c.MedRank.Sequential <= 0 {
			t.Errorf("k=%d: MEDRANK sequential accesses %d, want positive", c.K, c.MedRank.Sequential)
		}
		if c.MedRank.Random != 0 {
			t.Errorf("k=%d: MEDRANK random accesses %d, want 0", c.K, c.MedRank.Random)
		}
		if c.TA.Random <= 0 {
			t.Errorf("k=%d: TA random accesses %d, want positive", c.K, c.TA.Random)
		}
		if c.NRA.Sequential <= 0 || c.NRA.Random != 0 {
			t.Errorf("k=%d: NRA profile %+v, want positive sequential and zero random", c.K, c.NRA)
		}
		if c.CA.Sequential <= 0 {
			t.Errorf("k=%d: CA sequential accesses %d, want positive", c.K, c.CA.Sequential)
		}
		if c.CostCertificate <= 0 || c.CostRatio != 10 {
			t.Errorf("k=%d: cost certificate %d at ratio %d, want positive at 10", c.K, c.CostCertificate, c.CostRatio)
		}
		for name, es := range map[string]engineStats{"medrank": c.MedRank, "ta": c.TA, "nra": c.NRA, "ca": c.CA} {
			if es.CostOptimalityRatio < 1 {
				t.Errorf("k=%d: %s cost-weighted optimality ratio %v < 1", c.K, name, es.CostOptimalityRatio)
			}
			if want := es.Sequential + 10*es.Random; es.MiddlewareCost != want {
				// Averaged fields; allow off-by-one from integer division.
				if diff := es.MiddlewareCost - want; diff < -10 || diff > 10 {
					t.Errorf("k=%d: %s middleware cost %d, want ~%d", c.K, name, es.MiddlewareCost, want)
				}
			}
		}
	}
	if len(doc.Telemetry.Counters) == 0 {
		t.Error("telemetry counter snapshot empty under -stats")
	}
	if len(doc.Trace) == 0 {
		t.Error("trace event log empty under -trace")
	}
}

func TestRunTableOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "60", "-m", "3", "-values", "3", "-k", "2", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "elem probes") {
		t.Errorf("table header missing:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "x"},
		{"-k", "0"},
		{"-trials", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 20,300")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 300 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "-3", "1,,"} {
		if v, err := parseInts(bad); err == nil && bad != "1,," {
			t.Errorf("parseInts(%q) accepted: %v", bad, v)
		}
	}
	// Trailing commas are tolerated.
	if got, err := parseInts("5,"); err != nil || len(got) != 1 {
		t.Errorf("trailing comma: %v %v", got, err)
	}
}
