package lint

import (
	"strings"
	"testing"
)

// TestIgnoreSuppresses: a reasoned //sflint:ignore on the flagged line
// or the line above removes the diagnostic and the run is clean.
func TestIgnoreSuppresses(t *testing.T) {
	res := RunFixture(t, "ignored", Determinism)
	if !res.Clean() {
		t.Errorf("expected a clean run, got %v", res.All())
	}
}

// TestStaleIgnoreFails: a directive that suppresses nothing is itself
// a finding, so the ignore list can only shrink.
func TestStaleIgnoreFails(t *testing.T) {
	loader := NewLoader("testdata/src", "")
	pkg, err := loader.LoadPackage("staleignore")
	if err != nil {
		t.Fatalf("loading staleignore: %v", err)
	}
	res, err := Run([]*Package{pkg}, Analyzers)
	if err != nil {
		t.Fatalf("running staleignore: %v", err)
	}
	if res.Clean() {
		t.Fatal("stale //sflint:ignore must fail the run")
	}
	if len(res.IgnoreErrors) != 1 {
		t.Fatalf("expected exactly one stale-ignore error, got %v", res.All())
	}
	msg := res.IgnoreErrors[0].Message
	if !strings.Contains(msg, "stale //sflint:ignore determinism") || !strings.Contains(msg, "delete it") {
		t.Errorf("stale-ignore message should name the analyzer and demand deletion, got %q", msg)
	}
}

// TestUnknownAnalyzerIgnoreFails: naming a nonexistent analyzer is a
// load-time error — the directive would otherwise silently never
// match.
func TestUnknownAnalyzerIgnoreFails(t *testing.T) {
	err := fixtureError(t, "badignore")
	if !strings.Contains(err.Error(), `unknown analyzer "nosuch"`) {
		t.Errorf("expected unknown-analyzer error, got %v", err)
	}
}

// TestUnknownDirectiveFails: an //sf: keyword sflint does not define,
// in a doc comment or a trailing one, is a load-time error naming the
// keyword and its position — a misspelled //sf:hotpath would otherwise
// silently turn the check off.
func TestUnknownDirectiveFails(t *testing.T) {
	for fixture, want := range map[string]string{
		"misspelled": "misspelled.go:7:1: unknown directive //sf:hotpth",
		"trailing":   "trailing.go:8:23: unknown directive //sf:wallclok",
	} {
		if err := fixtureError(t, fixture); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: expected %q, got %v", fixture, want, err)
		}
	}
}

// TestMissingReasonIgnoreFails: the reason is mandatory.
func TestMissingReasonIgnoreFails(t *testing.T) {
	err := fixtureError(t, "noreason")
	if !strings.Contains(err.Error(), "analyzer name and a reason") {
		t.Errorf("expected missing-reason error, got %v", err)
	}
}
