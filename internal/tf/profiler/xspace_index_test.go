package profiler

import (
	"fmt"
	"testing"
)

// TestPlaneIndex verifies plane lookup by name through Plane creation,
// FindPlane lookups and direct Planes appends.
func TestPlaneIndex(t *testing.T) {
	s := &XSpace{}
	if s.FindPlane("missing") != nil {
		t.Fatal("FindPlane on empty space != nil")
	}
	a := s.Plane("/host:CPU")
	b := s.Plane("/device:GPU")
	if s.Plane("/host:CPU") != a {
		t.Fatal("Plane did not return the existing plane")
	}
	if s.FindPlane("/device:GPU") != b {
		t.Fatal("FindPlane missed an indexed plane")
	}
	// External code may append directly; lookup must see it.
	ext := &XPlane{Name: "/custom"}
	s.Planes = append(s.Planes, ext)
	if s.FindPlane("/custom") != ext {
		t.Fatal("FindPlane missed a directly appended plane")
	}
	if got := len(s.Planes); got != 3 {
		t.Fatalf("planes = %d, want 3", got)
	}
}

// TestLineIndex verifies the id→line index through creation, lookup,
// direct appends and SortLines (which must not invalidate it).
func TestLineIndex(t *testing.T) {
	p := &XPlane{Name: "test"}
	if p.FindLine(1) != nil {
		t.Fatal("FindLine on empty plane != nil")
	}
	for i := 10; i > 0; i-- {
		p.Line(int64(i), fmt.Sprintf("line-%d", i))
	}
	l5 := p.FindLine(5)
	if l5 == nil || l5.Name != "line-5" {
		t.Fatalf("FindLine(5) = %+v", l5)
	}
	if p.Line(5, "ignored") != l5 {
		t.Fatal("Line created a duplicate for an existing id")
	}
	p.SortLines()
	if p.FindLine(5) != l5 {
		t.Fatal("SortLines invalidated the line index")
	}
	if p.Lines[0].ID != 1 || p.Lines[9].ID != 10 {
		t.Fatalf("SortLines order broken: first=%d last=%d", p.Lines[0].ID, p.Lines[9].ID)
	}
	ext := &XLine{ID: 99, Name: "external"}
	p.Lines = append(p.Lines, ext)
	if p.FindLine(99) != ext {
		t.Fatal("FindLine missed a directly appended line")
	}
}
