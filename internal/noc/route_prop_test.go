package noc

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refMesh is the routing model as it stood before the division-free walk:
// coordinates by % and / on every step test, one four-way switch per hop.
// It is the reference the rewritten Mesh.route must reproduce link for link,
// cycle for cycle and counter for counter, kept here so the property tests
// below have something independent to compare against.
type refMesh struct {
	cfg      Config
	linkFree []sim.Time
	stats    Stats
}

func newRefMesh(cfg Config) *refMesh {
	return &refMesh{cfg: cfg, linkFree: make([]sim.Time, cfg.Width*cfg.Height*4)}
}

func (m *refMesh) xy(id int) (x, y int) { return id % m.cfg.Width, id / m.cfg.Width }

// send is the old Send+route pair without the scheduling: it returns the
// delivery time and the links reserved, in reservation order.
func (m *refMesh) send(now sim.Time, src, dst int, class Class, flits int) (sim.Time, []int) {
	m.stats.Messages[class]++
	m.stats.Flits[class] += uint64(flits)
	if src == dst {
		m.stats.TotalLatency += uint64(LocalCycles)
		return now + LocalCycles, nil
	}
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	t := now + RouterStages
	var queueing sim.Time
	var links []int
	x, y := sx, sy
	for x != dx || y != dy {
		var link int
		switch {
		case x < dx:
			link = (y*m.cfg.Width+x)*4 + dirEast
			x++
		case x > dx:
			link = (y*m.cfg.Width+x)*4 + dirWest
			x--
		case y < dy:
			link = (y*m.cfg.Width+x)*4 + dirSouth
			y++
		default:
			link = (y*m.cfg.Width+x)*4 + dirNorth
			y--
		}
		links = append(links, link)
		depart := t
		if m.linkFree[link] > depart {
			queueing += m.linkFree[link] - depart
			depart = m.linkFree[link]
		}
		m.linkFree[link] = depart + sim.Time(flits)*LinkCycles
		t = depart + LinkCycles + RouterStages
	}
	t += sim.Time(flits-1) * LinkCycles
	m.stats.RouterTraversal[class] += uint64(flits) * uint64(len(links)+1)
	m.stats.TotalLatency += uint64(t - now)
	m.stats.QueueingDelay += uint64(queueing)
	return t, links
}

// propShapes are the meshes the properties run over: the shipped square
// ones, and two non-square shapes where a transposed coordinate or a wrong
// row stride cannot hide.
var propShapes = [][2]int{{4, 4}, {8, 8}, {16, 16}, {3, 5}, {1, 7}}

func shapeConfig(w, h int) Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	return cfg
}

// TestRouteWalkMatchesRoute: for every (src, dst) of every shape, the links
// the walk reserves — read back from the link-reservation table of a fresh
// mesh, ordered by reservation time — are exactly Route(src, dst), which is
// exactly what the old loop reserved.
func TestRouteWalkMatchesRoute(t *testing.T) {
	for _, wh := range propShapes {
		cfg := shapeConfig(wh[0], wh[1])
		n := cfg.Width * cfg.Height
		m := New(cfg, sim.NewEngine())
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				clear(m.linkFree)
				got := m.route(0, src, dst, ClassForward, 1)
				// On an idle mesh each hop departs strictly later than the
				// one before, so reservation times order the walk.
				var walked []int
				for link, free := range m.linkFree {
					if free != 0 {
						walked = append(walked, link)
					}
				}
				sort.Slice(walked, func(i, j int) bool { return m.linkFree[walked[i]] < m.linkFree[walked[j]] })

				want, refLinks := newRefMesh(cfg).send(0, src, dst, ClassForward, 1)
				route := m.Route(src, dst)
				if fmt.Sprint(walked) != fmt.Sprint(route) || fmt.Sprint(walked) != fmt.Sprint(refLinks) {
					t.Fatalf("%dx%d %d->%d: walk reserved %v, Route says %v, old loop reserved %v",
						cfg.Width, cfg.Height, src, dst, walked, route, refLinks)
				}
				if got != want {
					t.Fatalf("%dx%d %d->%d: delivery at %d, old loop says %d", cfg.Width, cfg.Height, src, dst, got, want)
				}
			}
		}
	}
}

// TestSendScheduleMatchesReference: 10k Sends per shape at random times,
// endpoints, classes and sizes (local messages included) deliver at the
// cycles the old loop computes, leave the same Stats, and leave every link
// reserved until the same cycle.
func TestSendScheduleMatchesReference(t *testing.T) {
	const sends = 10000
	for _, wh := range propShapes {
		cfg := shapeConfig(wh[0], wh[1])
		n := cfg.Width * cfg.Height
		eng := sim.NewEngine()
		m := New(cfg, eng)
		ref := newRefMesh(cfg)
		got := make([]sim.Time, sends)
		for id := 0; id < n; id++ {
			m.Attach(id, func(p any) { got[p.(int)] = eng.Now() })
		}
		rng := sim.NewRNG(uint64(31*cfg.Width + cfg.Height))
		want := make([]sim.Time, sends)
		var at sim.Time
		for i := 0; i < sends; i++ {
			// Bursts at one cycle and short gaps keep links contended.
			at += sim.Time(rng.Intn(3))
			src, dst := rng.Intn(n), rng.Intn(n)
			class := Class(rng.Intn(int(numClasses)))
			flits := 1 + 4*rng.Intn(2)
			i := i
			eng.At(at, func() { m.Send(src, dst, class, flits, i) })
			// The reference sees the sends in the same (time, issue) order
			// the engine will run them in.
			want[i], _ = ref.send(at, src, dst, class, flits)
		}
		eng.Run(sim.Infinity)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d send %d: delivered at %d, old loop says %d", cfg.Width, cfg.Height, i, got[i], want[i])
			}
		}
		if m.Stats() != ref.stats {
			t.Fatalf("%dx%d stats diverged:\n got %+v\nwant %+v", cfg.Width, cfg.Height, m.Stats(), ref.stats)
		}
		for link := range ref.linkFree {
			if m.linkFree[link] != ref.linkFree[link] {
				t.Fatalf("%dx%d link %d free at %d, old loop says %d", cfg.Width, cfg.Height, link, m.linkFree[link], ref.linkFree[link])
			}
		}
		if ref.stats.QueueingDelay == 0 {
			t.Errorf("%dx%d schedule never contended a link; the property is vacuous", cfg.Width, cfg.Height)
		}
	}
}

// TestRouteTableMatchesRoute: the link list Send walks for each ordered
// pair is exactly Route(src, dst), on the shapes the machine runs and on
// the degenerate and non-square ones.
func TestRouteTableMatchesRoute(t *testing.T) {
	for _, wh := range [][2]int{{1, 1}, {4, 4}, {8, 8}, {2, 8}, {16, 16}} {
		cfg := shapeConfig(wh[0], wh[1])
		n := cfg.Width * cfg.Height
		m := New(cfg, sim.NewEngine())
		if len(m.pathOff) != n*n+1 {
			t.Fatalf("%dx%d: %d path offsets, want %d", cfg.Width, cfg.Height, len(m.pathOff), n*n+1)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				p := src*n + dst
				var table []int
				for _, l := range m.paths[m.pathOff[p]:m.pathOff[p+1]] {
					table = append(table, int(l))
				}
				if route := m.Route(src, dst); fmt.Sprint(table) != fmt.Sprint(route) {
					t.Fatalf("%dx%d %d->%d: table holds %v, Route says %v", cfg.Width, cfg.Height, src, dst, table, route)
				}
			}
		}
	}
}

// TestRouteTableSurvivesReshape: a mesh Reset to another shape and back
// (4x4 -> 8x8 -> 4x4) delivers a contended send schedule at the same
// cycles, with the same Stats, as a fresh 4x4 mesh.
func TestRouteTableSurvivesReshape(t *testing.T) {
	small, big := shapeConfig(4, 4), shapeConfig(8, 8)
	deliveries := func(m *Mesh, eng *sim.Engine) ([]sim.Time, Stats) {
		const sends = 2000
		n := m.Nodes()
		got := make([]sim.Time, sends)
		for id := 0; id < n; id++ {
			m.Attach(id, func(p any) { got[p.(int)] = eng.Now() })
		}
		rng := sim.NewRNG(5)
		var at sim.Time
		for i := 0; i < sends; i++ {
			at += sim.Time(rng.Intn(3))
			src, dst := rng.Intn(n), rng.Intn(n)
			class, flits, i := Class(rng.Intn(int(numClasses))), 1+4*rng.Intn(2), i
			eng.At(at, func() { m.Send(src, dst, class, flits, i) })
		}
		eng.Run(sim.Infinity)
		return got, m.Stats()
	}

	freshEng := sim.NewEngine()
	want, wantStats := deliveries(New(small, freshEng), freshEng)

	eng := sim.NewEngine()
	m := New(small, eng)
	deliveries(m, eng)
	var got []sim.Time
	var gotStats Stats
	for _, cfg := range []Config{big, small} {
		eng.Reset()
		m.Reset(cfg, eng)
		if n := cfg.Width * cfg.Height; len(m.pathOff) != n*n+1 {
			t.Fatalf("after Reset to %dx%d: %d path offsets, want %d", cfg.Width, cfg.Height, len(m.pathOff), n*n+1)
		}
		got, gotStats = deliveries(m, eng)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("4x4 -> 8x8 -> 4x4 mesh delivered at different cycles than a fresh 4x4 mesh")
	}
	if gotStats != wantStats {
		t.Fatalf("reshaped mesh stats %+v, fresh mesh %+v", gotStats, wantStats)
	}
	if wantStats.QueueingDelay == 0 {
		t.Error("schedule never contended a link; the property is vacuous")
	}
}
