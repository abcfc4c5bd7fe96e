package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"scalefree/internal/engine"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bee"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("x", 1.5)
	tab.AddRow(12345, "y")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "bee", "1.500", "12345", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Columns: []string{"x", "y"}}
	tab.AddRow("plain", `with,comma "quoted"`)
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "x,y\nplain,\"with,comma \"\"quoted\"\"\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		3.5:    "3.500",
		1234.5: "1234.5",
		-0.25:  "-0.250",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 13 {
		t.Fatalf("registry has %d experiments, want 13", len(reg))
	}
	for i, e := range reg {
		if want := i + 1; idNum(e.ID) != want {
			t.Errorf("registry[%d] = %s, want E%d", i, e.ID, want)
		}
		if e.Title == "" || e.Plan == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E7"); !ok {
		t.Error("ByID(E7) not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) found")
	}
}

func TestConfigScaling(t *testing.T) {
	c := Config{Scale: 0.1}
	if got := c.scaleInt(1000, 10); got != 100 {
		t.Errorf("scaleInt = %d, want 100", got)
	}
	if got := c.scaleInt(50, 10); got != 10 {
		t.Errorf("scaleInt floor = %d, want 10", got)
	}
	if got := (Config{}).scaleInt(70, 10); got != 70 {
		t.Errorf("unit scale = %d, want 70", got)
	}
	sizes := c.sizes(640, 3)
	if len(sizes) != 3 || sizes[0] != 64 || sizes[1] != 128 || sizes[2] != 256 {
		t.Errorf("sizes = %v", sizes)
	}
}

// smokeConfig is the one Config smokeDigests is recorded at, shared by
// TestAllExperimentsSmoke and every golden that checks a transport
// against the digests (checkSmokeDigest).
var smokeConfig = Config{Seed: 2024, Scale: 0.05}

// smokeDigests pins TestAllExperimentsSmoke across commits: per
// experiment, the SHA-256 of its plan fingerprint at (seed 2024, scale
// 0.05) followed by every table rendered as text and as CSV. The
// fingerprint covers every trial key, seed and position, so an
// unchanged digest also shows that existing caches and shard files
// still address correctly. A change that deliberately alters a plan or
// a table re-records the affected entries from the test's failure
// message.
var smokeDigests = map[string]string{
	"E1":  "9293d64c04731782deb392fd18ea082ab05c637c8c97bef5147b24e5cf8128f3",
	"E2":  "0cd4f9ef96784269dbdd3e66e8c21822310efc12015095aa0c558b555f36ccc3",
	"E3":  "1a7a011bb8eb26a744c75c796fb4b7c5db879ad7a3b75b2663d1f4bd7e6adbe3",
	"E4":  "97017007392ef91fd4e5dc0a99a91dd21e3062c87e485b7693f534028bfa24e2",
	"E5":  "b6cf6e1064895f5d9587a89414079d1d1e65a8182ad978ce620f2bd69311d185",
	"E6":  "f77a8eab62fa4a0277108f837ccc145320cc200930965de24dfe981ff0402506",
	"E7":  "8e33f4c4fda6459755637e1f27ca653d4705cdcb6a39661322bde85ba19f7352",
	"E8":  "ea9f3b51f67b46fdef9a7efb84b30dba0d469aa3f2f04e2d4102517050cea990",
	"E9":  "ea91e1f39aa9d151dc438656f12169c444b88cae3badcd66265a3396cc987742",
	"E10": "9a13ce9e0faa35982db526cd9966a182bbd58c1aff7863051bb71611c00bdd59",
	"E11": "0c8529338bf9aed84cf608ce94bcbe9b3d568ffd970dc7b7300abdc62e117884",
	"E12": "dab69d40e522855560e63b20772fba4e325743021ab39860253e7fa4682d1436",
	"E13": "c3fc3a9103e6931f29537a0c7a676b6257463e97ef229e3dbd215cac59308d0c",
}

// TestAllExperimentsSmoke runs every experiment at a tiny scale: the
// integration test that the whole pipeline — models, oracles,
// algorithms, statistics, rendering — works end to end, and the
// golden that pins each experiment's plan and its serial (-workers 1)
// tables (smokeDigests).
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			fp, err := e.Fingerprint(smokeConfig)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			tables, _, err := e.RunCached(context.Background(), smokeConfig, engine.Options{Workers: 1}, nil)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: table %q is empty", e.ID, tab.Title)
				}
			}
			if got := smokeDigest(fp, renderAll(t, tables)); got != smokeDigests[e.ID] {
				t.Errorf("%s: digest %s, pinned %q: a plan, seed or table changed", e.ID, got, smokeDigests[e.ID])
			}
		})
	}
}
