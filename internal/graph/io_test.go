package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"scalefree/internal/rng"
)

// ReadEdgeList parses the format written by WriteEdgeList. No program
// reads edge lists back, so the parser lives with the round-trip tests,
// exported for the external-package benchmarks.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)

	line, err := nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: reading magic line: %w", err)
	}
	if !strings.HasPrefix(line, "# scalefree edgelist") {
		return nil, fmt.Errorf("graph: bad magic line %q", line)
	}
	line, err = nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: reading size line: %w", err)
	}
	var n, m int
	if _, err := fmt.Sscanf(line, "n %d m %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad size line %q: %w", line, err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative sizes in %q", line)
	}
	b := NewBuilder(n, m)
	b.AddVertices(n)
	for e := 0; e < m; e++ {
		line, err = nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", e, err)
		}
		sep := strings.IndexByte(line, ' ')
		if sep < 0 {
			return nil, fmt.Errorf("graph: bad edge line %q", line)
		}
		u, err := strconv.Atoi(line[:sep])
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge tail in %q: %w", line, err)
		}
		v, err := strconv.Atoi(line[sep+1:])
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge head in %q: %w", line, err)
		}
		if u < 1 || u > n || v < 1 || v > n {
			return nil, fmt.Errorf("graph: edge %d endpoint out of range in %q", e, line)
		}
		b.AddEdge(Vertex(u), Vertex(v))
	}
	return b.Freeze(), nil
}

func nextLine(sc *bufio.Scanner) (string, error) {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	return strings.TrimRight(sc.Text(), "\r"), nil
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(4, 5)
	b.AddVertices(4)
	b.AddEdge(2, 1)
	b.AddEdge(3, 1)
	b.AddEdge(3, 3)
	b.AddEdge(4, 2)
	b.AddEdge(4, 2)
	g := b.Freeze()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, got) {
		t.Fatal("round trip changed the graph")
	}
}

func TestEdgeListRoundTripRandom(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 20; trial++ {
		n := r.IntRange(1, 50)
		m := r.Intn(100)
		b := NewBuilder(n, m)
		b.AddVertices(n)
		for i := 0; i < m; i++ {
			b.AddEdge(Vertex(r.IntRange(1, n)), Vertex(r.IntRange(1, n)))
		}
		g := b.Freeze()
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(g, got) {
			t.Fatalf("trial %d: round trip changed the graph", trial)
		}
	}
}

func TestEdgeListPreservesIsolatedVertices(t *testing.T) {
	b := NewBuilder(7, 1)
	b.AddVertices(7)
	b.AddEdge(1, 2)
	g := b.Freeze()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 7 {
		t.Fatalf("vertices = %d, want 7", got.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad magic", "nope\nn 1 m 0\n"},
		{"bad sizes", "# scalefree edgelist v1\nn x m y\n"},
		{"negative sizes", "# scalefree edgelist v1\nn -1 m 0\n"},
		{"truncated edges", "# scalefree edgelist v1\nn 2 m 2\n1 2\n"},
		{"edge out of range", "# scalefree edgelist v1\nn 2 m 1\n1 3\n"},
		{"zero endpoint", "# scalefree edgelist v1\nn 2 m 1\n0 1\n"},
		{"garbage edge", "# scalefree edgelist v1\nn 2 m 1\nonetwo\n"},
		{"garbage tail", "# scalefree edgelist v1\nn 2 m 1\nx 2\n"},
		{"garbage head", "# scalefree edgelist v1\nn 2 m 1\n1 y\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.input)); err == nil {
				t.Fatalf("ReadEdgeList(%q) succeeded, want error", tc.input)
			}
		})
	}
}

func TestEqual(t *testing.T) {
	a := buildPath(3)
	if !Equal(a, buildPath(3)) {
		t.Error("identical graphs reported unequal")
	}
	if Equal(a, buildPath(4)) {
		t.Error("different sizes reported equal")
	}
	b := NewBuilder(3, 2)
	b.AddVertices(3)
	b.AddEdge(2, 3)
	b.AddEdge(1, 2)
	if Equal(a, b.Freeze()) {
		t.Error("different edge order reported equal")
	}
}
