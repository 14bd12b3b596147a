// Package topo models the socket topology of the simulated machine: how
// the cores partition into sockets. The paper's machine is a single-socket
// 8-core Barcelona; the production-shape scenarios (E16) widen that to 2–4
// sockets, each with its own L3 slice, where crossing the socket boundary
// costs an extra coherence-directory hop (cache.Config.XSockLat).
//
// A Topology is pure arithmetic over core ids — no simulator state — so
// every layer (cache, asf, metrics tables) can share one value without
// import cycles. Core ids are assigned socket-major: cores
// [s*CoresPerSocket, (s+1)*CoresPerSocket) live on socket s.
package topo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Topology is one machine shape: Sockets × CoresPerSocket. The zero value
// means "unspecified" (single-socket semantics with whatever core count the
// machine has); use Parse or Make to build a real one.
type Topology struct {
	Sockets        int
	CoresPerSocket int
}

// Make builds a validated topology: both factors positive, and a core
// count that fits in an int (a wrapped product would pass a range check).
func Make(sockets, coresPerSocket int) (Topology, error) {
	t := Topology{Sockets: sockets, CoresPerSocket: coresPerSocket}
	if sockets <= 0 || coresPerSocket <= 0 {
		return Topology{}, fmt.Errorf("topo: bad shape %dx%d (both factors must be positive)", sockets, coresPerSocket)
	}
	if coresPerSocket > math.MaxInt/sockets {
		return Topology{}, fmt.Errorf("topo: bad shape %dx%d (core count overflows)", sockets, coresPerSocket)
	}
	return t, nil
}

// Parse converts the flag spelling "SxC" (e.g. "2x8": 2 sockets of 8 cores)
// into a Topology. The empty string parses to the zero value.
func Parse(s string) (Topology, error) {
	if s == "" {
		return Topology{}, nil
	}
	i := strings.IndexByte(s, 'x')
	if i <= 0 || i+1 >= len(s) {
		return Topology{}, fmt.Errorf("topo: bad topology %q (want SOCKETSxCORES, e.g. 2x8)", s)
	}
	sockets, err1 := strconv.Atoi(s[:i])
	cps, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil {
		return Topology{}, fmt.Errorf("topo: bad topology %q (want SOCKETSxCORES, e.g. 2x8)", s)
	}
	return Make(sockets, cps)
}

// IsZero reports whether t is the unspecified topology.
func (t Topology) IsZero() bool { return t == Topology{} }

// Total returns the machine's core count, Sockets × CoresPerSocket.
func (t Topology) Total() int { return t.Sockets * t.CoresPerSocket }

// SocketOf returns the socket core c lives on. The zero topology maps every
// core to socket 0.
func (t Topology) SocketOf(c int) int {
	if t.CoresPerSocket <= 0 {
		return 0
	}
	return c / t.CoresPerSocket
}

// String returns the flag spelling ("2x8"); the zero value prints "1xN?"-
// free as empty string so it round-trips through Parse.
func (t Topology) String() string {
	if t.IsZero() {
		return ""
	}
	return fmt.Sprintf("%dx%d", t.Sockets, t.CoresPerSocket)
}

// PerSocket folds a per-core slice (the metrics layer's PerCore arrays)
// into per-socket sums. Cores beyond Total() — or all cores, for the zero
// topology — fold into socket 0's bucket on a best-effort basis so callers
// never index out of range.
func (t Topology) PerSocket(perCore []uint64) []uint64 {
	n := t.Sockets
	if n <= 0 {
		n = 1
	}
	out := make([]uint64, n)
	for c, v := range perCore {
		s := t.SocketOf(c)
		if s >= n {
			s = n - 1
		}
		out[s] += v
	}
	return out
}
