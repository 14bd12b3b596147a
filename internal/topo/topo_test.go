package topo

import "testing"

func TestParse(t *testing.T) {
	cases := []struct {
		in      string
		want    Topology
		wantErr bool
	}{
		{"", Topology{}, false},
		{"1x8", Topology{1, 8}, false},
		{"2x8", Topology{2, 8}, false},
		{"4x16", Topology{4, 16}, false},
		{"x8", Topology{}, true},
		{"2x", Topology{}, true},
		{"2y8", Topology{}, true},
		{"0x8", Topology{}, true},
		{"2x-1", Topology{}, true},
		{"axb", Topology{}, true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("Parse(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, s := range []string{"", "1x8", "2x8", "4x16"} {
		tp, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if tp.String() != s {
			t.Errorf("Parse(%q).String() = %q", s, tp.String())
		}
	}
}

func TestSocketOf(t *testing.T) {
	tp := Topology{Sockets: 4, CoresPerSocket: 16}
	if tp.Total() != 64 {
		t.Fatalf("Total = %d", tp.Total())
	}
	for c := 0; c < 64; c++ {
		if got, want := tp.SocketOf(c), c/16; got != want {
			t.Fatalf("SocketOf(%d) = %d, want %d", c, got, want)
		}
	}
	var zero Topology
	if zero.SocketOf(17) != 0 {
		t.Error("zero topology must map every core to socket 0")
	}
}

func TestPerSocket(t *testing.T) {
	tp := Topology{Sockets: 2, CoresPerSocket: 4}
	per := []uint64{1, 2, 3, 4, 10, 20, 30, 40}
	got := tp.PerSocket(per)
	if len(got) != 2 || got[0] != 10 || got[1] != 100 {
		t.Fatalf("PerSocket = %v, want [10 100]", got)
	}
	var zero Topology
	if s := zero.PerSocket([]uint64{5, 6}); len(s) != 1 || s[0] != 11 {
		t.Fatalf("zero PerSocket = %v", s)
	}
}

// FuzzParse: Parse either fails, or returns positive factors whose product
// does not wrap and that round-trip through String. testdata/fuzz/FuzzParse
// holds two shapes whose core count used to wrap (to 2, and to -2).
func FuzzParse(f *testing.F) {
	for _, s := range []string{"", "1x8", "2x8", "4x16", "x8", "0x8", "2x-1", "+2x08"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := Parse(s)
		if err != nil {
			return
		}
		if s == "" {
			if !tp.IsZero() {
				t.Fatalf("Parse(\"\") = %v, want the zero topology", tp)
			}
			return
		}
		if tp.Sockets <= 0 || tp.CoresPerSocket <= 0 {
			t.Fatalf("Parse(%q) = %v: factors must be positive", s, tp)
		}
		if tp.Total()/tp.Sockets != tp.CoresPerSocket {
			t.Fatalf("Parse(%q) = %v: core count %d wraps", s, tp, tp.Total())
		}
		back, err := Parse(tp.String())
		if err != nil || back != tp {
			t.Fatalf("Parse(%q) = %v does not round-trip through %q: %v, %v", s, tp, tp.String(), back, err)
		}
	})
}
