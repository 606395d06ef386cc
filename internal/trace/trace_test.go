package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAppendKeepsOrder(t *testing.T) {
	s := NewSeries("p", "W")
	if err := s.Append(time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(time.Second, 2); err != nil {
		t.Fatal(err) // equal timestamps allowed
	}
	if err := s.Append(500*time.Millisecond, 3); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestMustAppendPanics(t *testing.T) {
	s := NewSeries("p", "W")
	s.MustAppend(time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend out of order did not panic")
		}
	}()
	s.MustAppend(0, 2)
}

func TestValues(t *testing.T) {
	s := NewSeries("p", "W")
	s.MustAppend(0, 10)
	s.MustAppend(2*time.Second, 20)
	vs := s.Values()
	if len(vs) != 2 || vs[0] != 10 || vs[1] != 20 {
		t.Errorf("Values = %v", vs)
	}
	vs[0] = 999 // must be a copy
	if s.Samples[0].V != 10 {
		t.Error("Values returned a view, not a copy")
	}
}

func TestDuration(t *testing.T) {
	s := NewSeries("p", "W")
	if s.Duration() != 0 {
		t.Error("empty Duration != 0")
	}
	s.MustAppend(time.Second, 1)
	if s.Duration() != 0 {
		t.Error("single-sample Duration != 0")
	}
	s.MustAppend(5*time.Second, 1)
	if s.Duration() != 4*time.Second {
		t.Errorf("Duration = %v, want 4s", s.Duration())
	}
}

func TestAtStepSemantics(t *testing.T) {
	s := NewSeries("p", "W")
	s.MustAppend(time.Second, 100)
	s.MustAppend(3*time.Second, 200)

	if _, ok := s.At(500 * time.Millisecond); ok {
		t.Error("At before first sample should be !ok")
	}
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{time.Second, 100},
		{2 * time.Second, 100},
		{3 * time.Second, 200},
		{time.Hour, 200},
	}
	for _, c := range cases {
		v, ok := s.At(c.t)
		if !ok || v != c.want {
			t.Errorf("At(%v) = %v,%v want %v,true", c.t, v, ok, c.want)
		}
	}
}

func TestClip(t *testing.T) {
	s := NewSeries("p", "W")
	for i := 0; i < 10; i++ {
		s.MustAppend(time.Duration(i)*time.Second, float64(i))
	}
	c := s.Clip(2*time.Second, 5*time.Second)
	if c.Len() != 3 || c.Samples[0].V != 2 || c.Samples[2].V != 4 {
		t.Errorf("Clip = %+v", c.Samples)
	}
	if c.Name != s.Name || c.Unit != s.Unit {
		t.Error("Clip lost name/unit")
	}
}

func TestEnergyIntegration(t *testing.T) {
	s := NewSeries("p", "W")
	s.MustAppend(0, 100)
	s.MustAppend(10*time.Second, 100)
	if got := s.Energy(); got != 1000 {
		t.Errorf("Energy = %v J, want 1000", got)
	}
	// step integration: value holds until next sample
	s2 := NewSeries("p", "W")
	s2.MustAppend(0, 100)
	s2.MustAppend(5*time.Second, 200)
	s2.MustAppend(10*time.Second, 0)
	if got := s2.Energy(); got != 100*5+200*5 {
		t.Errorf("Energy = %v J, want 1500", got)
	}
}

func TestMeanValue(t *testing.T) {
	s := NewSeries("p", "W")
	if !math.IsNaN(s.MeanValue()) {
		t.Error("empty MeanValue not NaN")
	}
	s.MustAppend(0, 10)
	s.MustAppend(time.Second, 30)
	if got := s.MeanValue(); got != 20 {
		t.Errorf("MeanValue = %v, want 20", got)
	}
}

func TestTagsLifecycle(t *testing.T) {
	set := NewSet()
	set.StartTag("loop1", time.Second)
	if err := set.EndTag("loop1", 3*time.Second); err != nil {
		t.Fatal(err)
	}
	tag, ok := set.TagWindow("loop1")
	if !ok || tag.Start != time.Second || tag.End != 3*time.Second {
		t.Errorf("TagWindow = %+v, %v", tag, ok)
	}
	if err := set.EndTag("loop1", 4*time.Second); err == nil {
		t.Error("EndTag on closed tag succeeded")
	}
	if err := set.EndTag("nope", time.Second); err == nil {
		t.Error("EndTag on unknown tag succeeded")
	}
}

func TestTagEndBeforeStart(t *testing.T) {
	set := NewSet()
	set.StartTag("x", 5*time.Second)
	if err := set.EndTag("x", time.Second); err == nil {
		t.Error("EndTag before start succeeded")
	}
}

func TestNestedRepeatedTags(t *testing.T) {
	set := NewSet()
	set.StartTag("w", 0)
	set.StartTag("w", time.Second) // nested same-name
	if err := set.EndTag("w", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := set.EndTag("w", 3*time.Second); err != nil {
		t.Fatal(err)
	}
	// first-closed in opening order: tag 0 closed at 3s? No — LIFO close:
	// the inner (1s) tag closed first at 2s; TagWindow returns opening order,
	// so the first tag has End=3s.
	tag, ok := set.TagWindow("w")
	if !ok || tag.Start != 0 || tag.End != 3*time.Second {
		t.Errorf("outer tag = %+v, %v", tag, ok)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	set := NewSet()
	set.Meta["node"] = "R00-M0-N00"
	set.Meta["seed"] = "42"
	s1 := set.Add(NewSeries("Chip Core", "W"))
	s2 := set.Add(NewSeries("DRAM", "W"))
	for i := 0; i < 100; i++ {
		ts := time.Duration(i) * 560 * time.Millisecond
		s1.MustAppend(ts, 1000+float64(i)*0.25)
		s2.MustAppend(ts, 300-float64(i)*0.125)
	}
	set.StartTag("work", 10*time.Second)
	if err := set.EndTag("work", 40*time.Second); err != nil {
		t.Fatal(err)
	}
	set.StartTag("unclosed", 50*time.Second)

	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["node"] != "R00-M0-N00" || got.Meta["seed"] != "42" {
		t.Errorf("meta lost: %v", got.Meta)
	}
	if len(got.Series) != 2 {
		t.Fatalf("series count = %d", len(got.Series))
	}
	for i := range set.Series {
		w, g := set.Series[i], got.Series[i]
		if w.Name != g.Name || w.Unit != g.Unit || w.Len() != g.Len() {
			t.Fatalf("series %d header mismatch", i)
		}
		for j := range w.Samples {
			if w.Samples[j] != g.Samples[j] {
				t.Fatalf("series %d sample %d: %+v != %+v", i, j, w.Samples[j], g.Samples[j])
			}
		}
	}
	if len(got.Tags) != 2 || got.Tags[0] != set.Tags[0] || !got.Tags[1].Open {
		t.Errorf("tags mismatch: %+v", got.Tags)
	}
}

func TestCSVDeterministic(t *testing.T) {
	build := func() *Set {
		set := NewSet()
		set.Meta["b"] = "2"
		set.Meta["a"] = "1"
		set.Meta["c"] = "3"
		s := set.Add(NewSeries("p", "W"))
		s.MustAppend(0, 1.5)
		return set
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteCSV(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("CSV output not deterministic")
	}
	if !strings.Contains(b1.String(), "#meta,a,1") {
		t.Errorf("unexpected encoding:\n%s", b1.String())
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(vals []float64, name string) bool {
		set := NewSet()
		s := set.Add(NewSeries(name, "W"))
		for i, v := range vals {
			if math.IsNaN(v) {
				return true // NaN != NaN breaks equality; CSV still encodes it
			}
			s.MustAppend(time.Duration(i)*time.Millisecond, v)
		}
		var buf bytes.Buffer
		if err := set.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || len(got.Series) != 1 {
			return false
		}
		g := got.Series[0]
		if g.Name != name || g.Len() != len(vals) {
			return false
		}
		for i := range vals {
			if g.Samples[i].V != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"bogus,1,2,3\n",
		"sample,0,123,4.5\n",            // sample before #series
		"#series,1,p,W\n",               // wrong index
		"#tag,x,notanumber,456\n",       //
		"sample,0,abc,1\n#series,0,p,W", //
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV accepted %q", c)
		}
	}
}

func TestSetLookupAndString(t *testing.T) {
	set := NewSet()
	set.Add(NewSeries("a", "W"))
	if set.Lookup("a") == nil || set.Lookup("b") != nil {
		t.Error("Lookup wrong")
	}
	if !strings.Contains(set.String(), "a[0]") {
		t.Errorf("String = %q", set.String())
	}
}

func BenchmarkAppend(b *testing.B) {
	s := NewSeries("p", "W")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.MustAppend(time.Duration(i), 1.0)
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	set := NewSet()
	s := set.Add(NewSeries("p", "W"))
	for i := 0; i < 10000; i++ {
		s.MustAppend(time.Duration(i)*time.Millisecond, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := set.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
