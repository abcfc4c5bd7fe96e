package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"scalefree/internal/engine"
)

// renderAll renders every table of an experiment run into one string,
// the byte-level artifact the determinism contract is stated over.
func renderAll(t *testing.T, tables []Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tab := range tables {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := tab.CSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// smokeDigest is the digest smokeDigests records: SHA-256 over the
// plan fingerprint, a newline, and the rendered tables.
func smokeDigest(fp, rendered string) string {
	sum := sha256.Sum256([]byte(fp + "\n" + rendered))
	return hex.EncodeToString(sum[:])
}

// checkSmokeDigest is the reference check of every transport golden:
// the tables a transport (workers, shards, cache, coordinator, chaos)
// produced for exp at smokeConfig must hash to exp's recorded digest,
// which TestAllExperimentsSmoke pins for the serial run. Only on a
// mismatch does it run the serial reference, to print the table diff
// and say which side disagrees.
func checkSmokeDigest(t *testing.T, exp Experiment, cfg Config, tables []Table, transport string) {
	t.Helper()
	if cfg != smokeConfig {
		t.Fatalf("%s %s: config %+v is not the smoke config %+v the digests are recorded at", exp.ID, transport, cfg, smokeConfig)
	}
	fp, err := exp.Fingerprint(cfg)
	if err != nil {
		t.Fatalf("%s: %v", exp.ID, err)
	}
	got := renderAll(t, tables)
	want := smokeDigests[exp.ID]
	if smokeDigest(fp, got) == want {
		return
	}
	ref, _, err := exp.RunCached(context.Background(), cfg, engine.Options{Workers: 1}, nil)
	if err != nil {
		t.Fatalf("%s %s: digest mismatch, and the serial reference failed: %v", exp.ID, transport, err)
	}
	serial := renderAll(t, ref)
	switch {
	case serial == got:
		t.Errorf("%s %s: tables match the serial reference, whose digest %s disagrees with the recorded %q: a plan, seed or table changed (see TestAllExperimentsSmoke)",
			exp.ID, transport, smokeDigest(fp, serial), want)
	case smokeDigest(fp, serial) == want:
		t.Errorf("%s %s: tables diverge from the serial reference, which matches the recorded digest: the transport is at fault\n%s",
			exp.ID, transport, tableDiff(ref, tables))
	default:
		t.Errorf("%s %s: tables diverge from the serial reference, and neither matches the recorded digest %q\n%s",
			exp.ID, transport, want, tableDiff(ref, tables))
	}
}

// tableLines renders tables unaligned, one line per title, header, row
// and note, so that a changed cell changes one line and realigns none.
func tableLines(tables []Table) []string {
	var lines []string
	for _, tab := range tables {
		lines = append(lines, tab.Title, strings.Join(tab.Columns, " | "))
		for _, row := range tab.Rows {
			lines = append(lines, strings.Join(row, " | "))
		}
		lines = append(lines, tab.Notes...)
	}
	return lines
}

// tableDiff lists the lines where got departs from the serial
// reference, as "-" (serial) / "+" (got) pairs, up to a bound.
func tableDiff(serial, got []Table) string {
	const maxLines = 20
	a, b := tableLines(serial), tableLines(got)
	var out strings.Builder
	shown := 0
	for i := 0; i < max(len(a), len(b)); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x == y {
			continue
		}
		if shown == maxLines {
			out.WriteString("...\n")
			break
		}
		shown++
		fmt.Fprintf(&out, "line %d:\n- %s\n+ %s\n", i+1, x, y)
	}
	return out.String()
}

// TestWorkersOutputInvariance is the engine's core guarantee at the
// experiment level: for the same Config, -workers N renders tables
// byte-identical to -workers 1, whose digest TestAllExperimentsSmoke
// records. E5 exercises per-replication trials, E4 Monte-Carlo trials
// with per-trial RNGs, E7 shared-nothing generation trials, E3 the
// RNG-consuming Monte-Carlo bound trials, E8 a reduce that joins
// samples across cells (Welch test), and E12/E13 the registry-driven
// model batteries.
func TestWorkersOutputInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	for _, id := range []string{"E3", "E4", "E5", "E7", "E8", "E12", "E13"} {
		t.Run(id, func(t *testing.T) {
			exp, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			for _, workers := range []int{4, 13} {
				tables, _, err := exp.RunCached(context.Background(), smokeConfig, engine.Options{Workers: workers}, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				checkSmokeDigest(t, exp, smokeConfig, tables, fmt.Sprintf("workers=%d", workers))
			}
		})
	}
}

// TestRunContextCancellation verifies a cancelled context aborts a
// RunCached run instead of silently producing tables.
func TestRunContextCancellation(t *testing.T) {
	exp, _ := ByID("E5")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := exp.RunCached(ctx, Config{Seed: 1, Scale: 0.05}, engine.Options{Workers: 2}, nil); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}
