package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseOptionsDefaults(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatalf("parseOptions(nil): %v", err)
	}
	if o.jsonOut || o.list {
		t.Errorf("defaults: jsonOut=%v list=%v, want false false", o.jsonOut, o.list)
	}
	if len(o.patterns) != 1 || o.patterns[0] != "./..." {
		t.Errorf("default patterns = %v, want [./...]", o.patterns)
	}
}

func TestParseOptionsRejectsUnknownFlag(t *testing.T) {
	if _, err := parseOptions([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag should be rejected")
	}
}

func TestListMode(t *testing.T) {
	var out, errBuf bytes.Buffer
	code, err := run([]string{"-list"}, &out, &errBuf)
	if err != nil || code != 0 {
		t.Fatalf("run -list: code=%d err=%v", code, err)
	}
	for _, name := range []string{"determinism", "hotpath", "codecreg"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

// writeModule lays down a one-package module for run to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestJSONFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"clock.go": "package tmpmod\n\nimport \"time\"\n\n" +
			"func now() time.Time { return time.Now() }\n",
	})
	var out, errBuf bytes.Buffer
	code, err := run([]string{"-C", dir, "-json"}, &out, &errBuf)
	if err != nil {
		t.Fatalf("run -json: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)", code)
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "determinism" || d.File != "clock.go" || d.Line == 0 || d.Col == 0 {
		t.Errorf("finding = %+v, want determinism at clock.go with position", d)
	}
	if !strings.Contains(d.Message, "time.Now") {
		t.Errorf("message %q should name time.Now", d.Message)
	}
}

func TestJSONCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  "module tmpmod\n\ngo 1.22\n",
		"pure.go": "package tmpmod\n\nfunc add(a, b int) int { return a + b }\n",
	})
	var out, errBuf bytes.Buffer
	code, err := run([]string{"-C", dir, "-json"}, &out, &errBuf)
	if err != nil || code != 0 {
		t.Fatalf("run -json on clean module: code=%d err=%v", code, err)
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Errorf("clean module produced findings: %+v", diags)
	}
}

func TestUnmatchedPatternFails(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  "module tmpmod\n\ngo 1.22\n",
		"pure.go": "package tmpmod\n\nfunc one() int { return 1 }\n",
	})
	var out, errBuf bytes.Buffer
	code, err := run([]string{"-C", dir, "nonexistent/..."}, &out, &errBuf)
	if err == nil || code != 2 {
		t.Fatalf("unmatched pattern: code=%d err=%v, want usage error", code, err)
	}
}
