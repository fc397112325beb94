// Package topo describes cluster network topologies as explicit link
// graphs with deterministic routing.
//
// A Spec names a topology family (flat, fat-tree, dragonfly, or a
// user-defined node→switch map); Build instantiates it for a concrete
// node count as a Graph: a flat array of unidirectional links, each with
// its own bandwidth, plus a Route function mapping a (source node,
// destination node) pair to the ordered list of link ids the message
// traverses. The fabric serializes every inter-node message on each
// routed link's busy-until clock, so oversubscribed trunks become real
// queueing points instead of an analytic divisor.
//
// The package is deliberately self-contained (no imports from the rest
// of the simulator): model depends on it to carry a Spec in a Profile,
// fault depends on it to validate named link/switch outages, and fabric
// depends on it to route, never the other way around.
//
// Modelled structure, by family:
//
//   - Flat: no graph at all. Build returns nil and the fabric keeps its
//     historical single-link + CongestionFactor closed form, so existing
//     results reproduce byte-for-byte.
//   - FatTree: two-level folded Clos. Every node hangs off a leaf switch
//     (Arity nodes per leaf) through an up and a down link at the NIC
//     rate; every leaf reaches a non-blocking core through Trunks
//     parallel up/down trunk pairs whose aggregate bandwidth is
//     Arity·linkBW/Oversub. Oversub = 1 is full bisection; Oversub = 2
//     halves every leaf's uplink capacity. Trunks > 1 exposes the ECMP
//     path diversity real Clos fabrics have: deterministic (src+dst) hash
//     spreads flows over the trunks, and RouteAvoid can steer around a
//     dead trunk without losing connectivity.
//   - Dragonfly: nodes are grouped (GroupSize per group); intra-group
//     routing is non-blocking, every ordered group pair owns one global
//     link at the NIC rate. Routing is minimal; RouteAvoid falls back to
//     one-intermediate-group (Valiant-style) paths when the minimal
//     global link is down.
//   - Custom: an explicit node→switch map; each switch gets an up/down
//     trunk pair of bandwidth members·linkBW/Oversub to a non-blocking
//     core, so irregular and deliberately unbalanced placements can be
//     expressed directly.
package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind selects a topology family.
type Kind uint8

// The topology families.
const (
	Flat      Kind = iota // single full-bisection link; analytic congestion
	FatTree               // two-level folded Clos with oversubscription
	Dragonfly             // groups with per-pair global links
	Custom                // user-defined node→switch map
)

// String names the kind as accepted by Parse.
func (k Kind) String() string {
	switch k {
	case Flat:
		return "flat"
	case FatTree:
		return "fattree"
	case Dragonfly:
		return "dragonfly"
	case Custom:
		return "custom"
	}
	return "?"
}

// Spec is a parameterized topology description, independent of node
// count. The zero value (and nil) mean Flat.
type Spec struct {
	Kind Kind

	// Arity is the fat-tree's nodes-per-leaf-switch count (default 4).
	Arity int
	// Oversub is the uplink oversubscription ratio for fat-tree and
	// custom switches: aggregate trunk bandwidth = members·linkBW/Oversub
	// (default 1 = full bisection).
	Oversub float64
	// Trunks is the fat-tree's number of parallel uplink trunk pairs per
	// leaf (default 1). The aggregate leaf uplink bandwidth is fixed by
	// Arity/Oversub and split evenly, so Trunks trades single-flow trunk
	// rate for ECMP path diversity (and failure survivability).
	Trunks int
	// GroupSize is the dragonfly's nodes-per-group count (default 4).
	GroupSize int
	// NodeSwitch maps node → switch id for Custom topologies.
	NodeSwitch []int
}

// IsFlat reports whether the spec selects the flat (legacy) fabric path.
// A nil spec is flat.
func (s *Spec) IsFlat() bool { return s == nil || s.Kind == Flat }

// String renders the spec in the canonical form accepted by Parse.
func (s *Spec) String() string {
	if s.IsFlat() {
		return "flat"
	}
	switch s.Kind {
	case FatTree:
		out := fmt.Sprintf("fattree:arity=%d,oversub=%g", s.arity(), s.oversub())
		if s.trunks() > 1 {
			out += fmt.Sprintf(",trunks=%d", s.trunks())
		}
		return out
	case Dragonfly:
		return fmt.Sprintf("dragonfly:group=%d", s.group())
	case Custom:
		parts := make([]string, len(s.NodeSwitch))
		for i, sw := range s.NodeSwitch {
			parts[i] = strconv.Itoa(sw)
		}
		return fmt.Sprintf("custom:map=%s,oversub=%g", strings.Join(parts, "."), s.oversub())
	}
	return "?"
}

func (s *Spec) arity() int {
	if s.Arity <= 0 {
		return 4
	}
	return s.Arity
}

func (s *Spec) oversub() float64 {
	if s.Oversub <= 0 {
		return 1
	}
	return s.Oversub
}

func (s *Spec) trunks() int {
	if s.Trunks <= 0 {
		return 1
	}
	return s.Trunks
}

func (s *Spec) group() int {
	if s.GroupSize <= 0 {
		return 4
	}
	return s.GroupSize
}

// Parse builds a Spec from a -topo flag value. Accepted forms:
//
//	flat
//	fattree[:arity=4,oversub=2,trunks=2]
//	dragonfly[:group=4]
//	custom:map=0.0.1.1[,oversub=2]
func Parse(s string) (*Spec, error) {
	name, params, _ := strings.Cut(s, ":")
	spec := &Spec{}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "flat", "":
		spec.Kind = Flat
	case "fattree", "fat-tree":
		spec.Kind = FatTree
	case "dragonfly":
		spec.Kind = Dragonfly
	case "custom", "switches":
		spec.Kind = Custom
	default:
		return nil, fmt.Errorf("topo: unknown topology %q", name)
	}
	if params == "" {
		if spec.Kind == Custom {
			return nil, fmt.Errorf("topo: custom topology needs map=<sw.sw...>")
		}
		return spec, nil
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("topo: bad parameter %q (want key=value)", kv)
		}
		switch strings.TrimSpace(key) {
		case "arity":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("topo: bad arity %q", val)
			}
			spec.Arity = n
		case "oversub":
			x, err := strconv.ParseFloat(val, 64)
			if err != nil || x < 1 {
				return nil, fmt.Errorf("topo: bad oversub %q (want >= 1)", val)
			}
			spec.Oversub = x
		case "trunks":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("topo: bad trunks %q", val)
			}
			spec.Trunks = n
		case "group":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("topo: bad group %q", val)
			}
			spec.GroupSize = n
		case "map":
			for _, part := range strings.Split(val, ".") {
				sw, err := strconv.Atoi(part)
				if err != nil || sw < 0 {
					return nil, fmt.Errorf("topo: bad switch id %q in map", part)
				}
				spec.NodeSwitch = append(spec.NodeSwitch, sw)
			}
		default:
			return nil, fmt.Errorf("topo: unknown parameter %q", key)
		}
	}
	if spec.Kind == Custom && len(spec.NodeSwitch) == 0 {
		return nil, fmt.Errorf("topo: custom topology needs map=<sw.sw...>")
	}
	return spec, nil
}

// Link is one unidirectional channel in the graph.
type Link struct {
	Name string  // stable human-readable id, e.g. "leaf0.up"
	BW   float64 // bandwidth in bytes per nanosecond
}

// Graph is a Spec instantiated for a concrete node count: the link array
// plus the deterministic routing function over it.
type Graph struct {
	kind     Kind
	nodes    int
	numSw    int // leaf-switch / group / custom-switch count
	links    []Link
	nodeUp   []int          // per node: node→switch link id
	nodeDown []int          // per node: switch→node link id
	swOf     []int          // node → leaf switch / group / custom switch
	swUp     [][]int        // per switch: trunk-to-core link ids (fat-tree, custom)
	swDown   [][]int        // per switch: core-to-switch link ids
	glob     map[[2]int]int // dragonfly: ordered group pair → global link id
	byName   map[string]int // link name → id
}

// Build instantiates the spec for the given node count and base link
// bandwidth (the per-NIC rate from the profile). A flat spec builds no
// graph: Build returns (nil, nil) and the fabric keeps its legacy path.
func Build(s *Spec, nodes int, linkBW float64) (*Graph, error) {
	if s.IsFlat() {
		return nil, nil
	}
	if nodes < 1 {
		return nil, fmt.Errorf("topo: need at least 1 node, have %d", nodes)
	}
	if linkBW <= 0 {
		return nil, fmt.Errorf("topo: non-positive link bandwidth %g", linkBW)
	}
	g := &Graph{
		kind:     s.Kind,
		nodes:    nodes,
		nodeUp:   make([]int, nodes),
		nodeDown: make([]int, nodes),
		swOf:     make([]int, nodes),
		byName:   make(map[string]int),
	}
	addLink := func(name string, bw float64) int {
		g.links = append(g.links, Link{Name: name, BW: bw})
		g.byName[name] = len(g.links) - 1
		return len(g.links) - 1
	}
	for n := 0; n < nodes; n++ {
		g.nodeUp[n] = addLink(fmt.Sprintf("node%d.up", n), linkBW)
		g.nodeDown[n] = addLink(fmt.Sprintf("node%d.down", n), linkBW)
	}
	switch s.Kind {
	case FatTree:
		arity, over, trunks := s.arity(), s.oversub(), s.trunks()
		leaves := (nodes + arity - 1) / arity
		// The aggregate uplink capacity per leaf is fixed by arity/oversub
		// and split evenly across the parallel trunks; a single trunk
		// keeps its historical name ("leaf0.up") so default-spec link
		// arrays stay byte-identical.
		trunkBW := float64(arity) * linkBW / (over * float64(trunks))
		g.numSw = leaves
		g.swUp = make([][]int, leaves)
		g.swDown = make([][]int, leaves)
		for l := 0; l < leaves; l++ {
			for t := 0; t < trunks; t++ {
				up, down := fmt.Sprintf("leaf%d.up", l), fmt.Sprintf("leaf%d.down", l)
				if trunks > 1 {
					up = fmt.Sprintf("leaf%d.up%d", l, t)
					down = fmt.Sprintf("leaf%d.down%d", l, t)
				}
				g.swUp[l] = append(g.swUp[l], addLink(up, trunkBW))
				g.swDown[l] = append(g.swDown[l], addLink(down, trunkBW))
			}
		}
		for n := 0; n < nodes; n++ {
			g.swOf[n] = n / arity
		}
	case Dragonfly:
		gs := s.group()
		groups := (nodes + gs - 1) / gs
		g.numSw = groups
		for n := 0; n < nodes; n++ {
			g.swOf[n] = n / gs
		}
		g.glob = make(map[[2]int]int)
		for a := 0; a < groups; a++ {
			for b := 0; b < groups; b++ {
				if a == b {
					continue
				}
				g.glob[[2]int{a, b}] = addLink(fmt.Sprintf("grp%d-grp%d", a, b), linkBW)
			}
		}
	case Custom:
		if len(s.NodeSwitch) < nodes {
			return nil, fmt.Errorf("topo: custom map covers %d nodes, need %d",
				len(s.NodeSwitch), nodes)
		}
		maxSw := 0
		for n := 0; n < nodes; n++ {
			g.swOf[n] = s.NodeSwitch[n]
			if s.NodeSwitch[n] > maxSw {
				maxSw = s.NodeSwitch[n]
			}
		}
		members := make([]int, maxSw+1)
		for n := 0; n < nodes; n++ {
			members[g.swOf[n]]++
		}
		over := s.oversub()
		g.numSw = maxSw + 1
		g.swUp = make([][]int, maxSw+1)
		g.swDown = make([][]int, maxSw+1)
		for sw := 0; sw <= maxSw; sw++ {
			m := members[sw]
			if m == 0 {
				m = 1 // empty switch: keep a placeholder trunk
			}
			trunkBW := float64(m) * linkBW / over
			g.swUp[sw] = []int{addLink(fmt.Sprintf("sw%d.up", sw), trunkBW)}
			g.swDown[sw] = []int{addLink(fmt.Sprintf("sw%d.down", sw), trunkBW)}
		}
	default:
		return nil, fmt.Errorf("topo: cannot build kind %v", s.Kind)
	}
	return g, nil
}

// NumLinks reports the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns the link with the given id.
func (g *Graph) Link(id int) Link { return g.links[id] }

// Links returns a copy of the link array, indexed by link id.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// LinkID resolves a link name ("leaf0.up", "grp1-grp0") to its id.
func (g *Graph) LinkID(name string) (int, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// SwitchLinks resolves a switch name to every link incident to it: the
// member nodes' up/down links plus the switch's trunks (fat-tree and
// custom) or every global link touching the group (dragonfly). Names
// follow the link-name prefixes: "leaf1" for fat-tree leaves, "grp2" for
// dragonfly groups, "sw0" for custom switches.
func (g *Graph) SwitchLinks(name string) ([]int, bool) {
	var prefix string
	switch g.kind {
	case FatTree:
		prefix = "leaf"
	case Dragonfly:
		prefix = "grp"
	case Custom:
		prefix = "sw"
	default:
		return nil, false
	}
	idx, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
	if !strings.HasPrefix(name, prefix) || err != nil || idx < 0 || idx >= g.numSw {
		return nil, false
	}
	var out []int
	for n := 0; n < g.nodes; n++ {
		if g.swOf[n] == idx {
			out = append(out, g.nodeUp[n], g.nodeDown[n])
		}
	}
	if g.kind == Dragonfly {
		for pair, li := range g.glob {
			if pair[0] == idx || pair[1] == idx {
				out = append(out, li)
			}
		}
		return out, true
	}
	out = append(out, g.swUp[idx]...)
	out = append(out, g.swDown[idx]...)
	return out, true
}

// trunkOf deterministically spreads flows across a switch's parallel
// trunks: flow hash = src+dst, so a pair always rides the same trunk and
// a single-trunk switch always picks trunk 0 (the historical path).
func trunkOf(src, dst, trunks int) int { return (src + dst) % trunks }

// Route returns the ordered link ids a message from src node to dst node
// traverses. Same-node traffic never reaches the graph (the fabric's
// shared-memory transport handles it); Route returns nil for it. Routing
// is minimal and deterministic: the same pair always yields the same
// path.
func (g *Graph) Route(src, dst int) []int {
	if src == dst {
		return nil
	}
	s1, s2 := g.swOf[src], g.swOf[dst]
	switch g.kind {
	case FatTree, Custom:
		if s1 == s2 {
			return []int{g.nodeUp[src], g.nodeDown[dst]}
		}
		up := g.swUp[s1][trunkOf(src, dst, len(g.swUp[s1]))]
		down := g.swDown[s2][trunkOf(src, dst, len(g.swDown[s2]))]
		return []int{g.nodeUp[src], up, down, g.nodeDown[dst]}
	case Dragonfly:
		if s1 == s2 {
			return []int{g.nodeUp[src], g.nodeDown[dst]}
		}
		return []int{g.nodeUp[src], g.glob[[2]int{s1, s2}], g.nodeDown[dst]}
	}
	return nil
}

// RouteAvoid recomputes the src→dst route treating every link for which
// down(li) reports true as failed. It prefers the minimal route's links
// (starting at the pair's hash-chosen trunk) and degrades deterministically:
// a fat-tree steers to the lowest surviving alternate trunk on each side;
// a dragonfly falls back to the lowest intermediate group whose two global
// hops both survive. ok = false means the destination is partitioned — no
// surviving path exists (including a dead node link, which has no
// alternative in either family).
func (g *Graph) RouteAvoid(src, dst int, down func(int) bool) ([]int, bool) {
	if src == dst {
		return nil, true
	}
	if down(g.nodeUp[src]) || down(g.nodeDown[dst]) {
		return nil, false
	}
	s1, s2 := g.swOf[src], g.swOf[dst]
	if s1 == s2 {
		return []int{g.nodeUp[src], g.nodeDown[dst]}, true
	}
	switch g.kind {
	case FatTree, Custom:
		pick := func(trunks []int) int {
			n := len(trunks)
			for i := 0; i < n; i++ {
				if li := trunks[(trunkOf(src, dst, n)+i)%n]; !down(li) {
					return li
				}
			}
			return -1
		}
		up, dn := pick(g.swUp[s1]), pick(g.swDown[s2])
		if up < 0 || dn < 0 {
			return nil, false
		}
		return []int{g.nodeUp[src], up, dn, g.nodeDown[dst]}, true
	case Dragonfly:
		if li := g.glob[[2]int{s1, s2}]; !down(li) {
			return []int{g.nodeUp[src], li, g.nodeDown[dst]}, true
		}
		for c := 0; c < g.numSw; c++ {
			if c == s1 || c == s2 {
				continue
			}
			l1, l2 := g.glob[[2]int{s1, c}], g.glob[[2]int{c, s2}]
			if !down(l1) && !down(l2) {
				return []int{g.nodeUp[src], l1, l2, g.nodeDown[dst]}, true
			}
		}
		return nil, false
	}
	return nil, false
}

// RouteNames returns Route's path as link names (for trace attribution).
func (g *Graph) RouteNames(src, dst int) []string {
	path := g.Route(src, dst)
	if path == nil {
		return nil
	}
	names := make([]string, len(path))
	for i, id := range path {
		names[i] = g.links[id].Name
	}
	return names
}
