package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/qbench"
	"repro/internal/topology"
)

// Request kinds, one per endpoint the workloads drive.
const (
	kindLayout   = "layout"   // GET /v1/layout
	kindDelta    = "delta"    // POST /v1/layout/delta
	kindFidelity = "fidelity" // GET /v1/fidelity
)

// target names one layout: the (topology, strategy, GP seed, mappings)
// tuple the service hashes into its cache key. Mappings 0 keeps the
// service default.
type target struct {
	Topology string        `json:"topology"`
	Strategy core.Strategy `json:"strategy"`
	Seed     int64         `json:"seed"`
	Mappings int           `json:"mappings,omitempty"`
}

// config reproduces the request config the HTTP layer builds for t:
// evaluation defaults with the seed and mappings overrides applied.
func (t target) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.GP.Seed = t.Seed
	if t.Mappings > 0 {
		cfg.Mappings = t.Mappings
	}
	return cfg
}

func (t target) query() url.Values {
	q := url.Values{}
	q.Set("topology", t.Topology)
	q.Set("strategy", string(t.Strategy))
	q.Set("seed", strconv.FormatInt(t.Seed, 10))
	if t.Mappings > 0 {
		q.Set("mappings", strconv.Itoa(t.Mappings))
	}
	return q
}

// request is one generated HTTP request plus the inputs it was built
// from, which the traced run needs to re-invoke layer functions.
type request struct {
	Kind   string
	Target target
	Edits  []topology.Edit
	Bench  string
	// Path and Body are what is sent.
	Path string
	Body []byte
}

// sizes scales a workload. The defaults are the benchmark; tests pass
// tiny ones.
type sizes struct {
	// Topologies the requests range over.
	Topologies []string
	// Requests is the generated list length, an upper bound on what one
	// run can send.
	Requests int
	// Quality is how many leading requests of the list define the
	// quality metrics and the layout digest. A measured phase always
	// completes at least these.
	Quality int
	// HotSeeds is the number of GP seeds per topology in the hot-hits
	// working set (topologies x 6 strategies x HotSeeds layouts).
	HotSeeds int
	// MemTier is the hot-hits memory-tier capacity, below the working
	// set so that part of the hits come from disk.
	MemTier int
	// ZipfS is the hot-hits popularity exponent.
	ZipfS float64
	// Mappings are the fidelity mapping counts edit-score uses. Each
	// gets its own layouts (mappings is part of the layout cache key,
	// though not of the GP key); small counts keep one fidelity request
	// near a delta's cost. Per topology they give 5 strategies x 7
	// benches x len(Mappings) unique fidelity tuples, one per cycle.
	Mappings []int
}

// workload is a generated request list with the layouts its set-up
// warms.
type workload struct {
	Name  string
	Warm  []target
	Reqs  []request
	Sizes sizes
	// Tiered runs the engine over a memory tier of Sizes.MemTier
	// entries spilling to a disk tier, as qgdp-serve -cache-dir does.
	Tiered bool
	// Cycle is the length of the list's repeating unit of request mix;
	// a measured phase sends whole cycles.
	Cycle int
}

var workloadNames = []string{"cold-sweep", "hot-hits", "edit-score"}

func allTopologies() []string {
	var out []string
	for _, d := range topology.All() {
		out = append(out, d.Name)
	}
	return out
}

func defaultSizes(name string, seconds int) sizes {
	s := sizes{Topologies: allTopologies(), HotSeeds: 2, MemTier: 24, ZipfS: 1.1, Mappings: []int{2, 3, 4, 5, 6, 7, 8, 9, 10}}
	// Requests leaves several times the throughput measured on a 2-vCPU
	// machine as headroom; a run stops at its time limit, not at the end
	// of the list.
	switch name {
	case "cold-sweep":
		s.Requests, s.Quality = 60*seconds+270, 270
	case "hot-hits":
		s.Requests, s.Quality = 1000*seconds+2000, 2000
	case "edit-score":
		s.Requests, s.Quality = 300*seconds+240, 240
	}
	return s
}

// generate builds a workload's request list. It is a pure function of
// (name, seed, sizes): the service only ever sees what it returns.
func generate(name string, seed int64, sz sizes) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{Name: name, Sizes: sz, Cycle: 1}
	var err error
	switch name {
	case "cold-sweep":
		w.Warm, w.Reqs, w.Cycle = genColdSweep(rng, sz)
	case "hot-hits":
		w.Tiered = true
		w.Warm, w.Reqs = genHotHits(rng, sz)
	case "edit-score":
		w.Warm, w.Reqs, w.Cycle, err = genEditScore(rng, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: cold-sweep, hot-hits, edit-score)", name)
	}
	if err != nil {
		return nil, err
	}
	for i := range w.Reqs {
		w.Reqs[i].encode()
	}
	return w, nil
}

func (r *request) encode() {
	q := r.Target.query()
	switch r.Kind {
	case kindLayout:
		r.Path = "/v1/layout?" + q.Encode()
	case kindFidelity:
		q.Set("bench", r.Bench)
		r.Path = "/v1/fidelity?" + q.Encode()
	case kindDelta:
		r.Path = "/v1/layout/delta"
		body := map[string]any{
			"topology": r.Target.Topology,
			"strategy": r.Target.Strategy,
			"seed":     r.Target.Seed,
			"edits":    r.Edits,
		}
		if r.Target.Mappings > 0 {
			body["mappings"] = r.Target.Mappings
		}
		r.Body, _ = json.Marshal(body) // maps of plain values always marshal
	}
}

// inputDigest hashes everything the service will be sent.
func (w *workload) inputDigest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(w.Warm) // hash.Hash writes never fail
	for _, r := range w.Reqs {
		fmt.Fprintf(h, "%s\n", r.Path)
		h.Write(r.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// freshSeedBase keeps measured GP seeds apart from the working sets'
// fixed seeds 1, 2, ..., so a cold request never hits a layout the
// set-up computed.
const freshSeedBase = 1 << 20

// Working sets (the layouts a set-up computes) and the cold-sweep
// layouts use fixed GP seeds, so their Table III quality is a constant
// of the code and the quality metrics compare exactly between commits
// (edit-score's delta results still vary with the seeded edits).

// genColdSweep: groups of three requests on one fresh (topology, GP
// seed), qGDP-DP plus two of the other five strategies. The k-th group
// of a topology uses GP seed freshSeedBase+k and the (k mod 5)-th pair
// of a rotation that names each other strategy twice in five groups.
// A cycle is five groups per topology, so every cycle asks for the
// same mix of (topology, strategy) and a run's cost per request does
// not depend on how many cycles it sent. The layouts are a constant of
// the code, like the other workloads' working sets; the seed draws the
// order of the topologies and of the strategies in a group. The set-up
// computes one qGDP-DP layout per topology, so lazily built pools and
// scratch buffers exist before the measured phase.
func genColdSweep(rng *rand.Rand, sz sizes) (warm []target, reqs []request, cycle int) {
	for _, topo := range sz.Topologies {
		warm = append(warm, target{Topology: topo, Strategy: core.QGDPDP, Seed: 1})
	}
	o := core.Strategies()
	pairs := [][2]core.Strategy{{o[0], o[1]}, {o[2], o[3]}, {o[4], o[0]}, {o[1], o[2]}, {o[3], o[4]}}
	nt := len(sz.Topologies)
	reqs = make([]request, 0, sz.Requests+3*nt)
	for k := 0; len(reqs) < sz.Requests; k++ {
		p := pairs[k%len(pairs)]
		for _, t := range rng.Perm(nt) {
			strats := []core.Strategy{core.QGDPDP, p[0], p[1]}
			rng.Shuffle(len(strats), func(i, j int) { strats[i], strats[j] = strats[j], strats[i] })
			for _, s := range strats {
				reqs = append(reqs, request{Kind: kindLayout, Target: target{Topology: sz.Topologies[t], Strategy: s, Seed: freshSeedBase + int64(k)}})
			}
		}
	}
	return warm, reqs[:sz.Requests], 3 * len(pairs) * nt
}

// genHotHits: Zipf-popular GETs over a working set of every topology x
// strategy at HotSeeds seeds. Popularity ranks go to the topologies in
// turn, so each topology's share of the traffic is the same for every
// seed; the seed picks which of its layouts holds each rank.
func genHotHits(rng *rand.Rand, sz sizes) ([]target, []request) {
	strats := append(core.Strategies(), core.QGDPDP)
	var warm []target
	byTopo := make([][]target, len(sz.Topologies))
	for k := 0; k < sz.HotSeeds; k++ {
		for ti, topo := range sz.Topologies {
			for _, s := range strats {
				t := target{Topology: topo, Strategy: s, Seed: int64(k + 1)}
				warm = append(warm, t)
				byTopo[ti] = append(byTopo[ti], t)
			}
		}
	}
	var ranked []target
	for _, ts := range byTopo {
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	}
	for r := 0; len(ranked) < len(warm); r++ {
		ranked = append(ranked, byTopo[r%len(byTopo)][r/len(byTopo)])
	}
	zipf := rand.NewZipf(rng, sz.ZipfS, 1, uint64(len(ranked)-1))
	reqs := make([]request, sz.Requests)
	for i := range reqs {
		reqs[i] = request{Kind: kindLayout, Target: ranked[zipf.Uint64()]}
	}
	return warm, reqs
}

// genEditScore: each cycle holds, per topology, three deltas with a
// unique fast-path edit list on the warmed qGDP-LG or qGDP-DP base, and
// one fidelity request with a unique (strategy, mappings, bench) tuple,
// in seeded order. Fidelity runs on the five strategies other than
// qGDP-DP at mapping counts the bases do not use, so each tuple's
// layout is legalized from the cached GP solution on its first
// request; per topology the tuples come grouped by layout, so the next
// six requests of a group find it in the store. Warming every fidelity
// layout instead would overflow the engine's default 256-entry layout
// store once delta results arrive, and which of them got evicted would
// then vary from seed to seed.
func genEditScore(rng *rand.Rand, sz sizes) (warm []target, reqs []request, cycle int, err error) {
	nt := len(sz.Topologies)
	fids := make([][]request, nt)
	devs := make([]*topology.Device, nt)
	benches := qbench.Suite()
	for ti, topo := range sz.Topologies {
		if devs[ti], err = topology.ByName(topo); err != nil {
			return nil, nil, 0, err
		}
		warm = append(warm, target{Topology: topo, Strategy: core.QGDPLG, Seed: 1},
			target{Topology: topo, Strategy: core.QGDPDP, Seed: 1})
		var lays []target
		for _, m := range sz.Mappings {
			for _, s := range core.Strategies() {
				lays = append(lays, target{Topology: topo, Strategy: s, Seed: 1, Mappings: m})
			}
		}
		rng.Shuffle(len(lays), func(i, j int) { lays[i], lays[j] = lays[j], lays[i] })
		for _, t := range lays {
			for _, bi := range rng.Perm(len(benches)) {
				fids[ti] = append(fids[ti], request{Kind: kindFidelity, Target: t, Bench: benches[bi].Name})
			}
		}
	}
	seen := map[string]bool{}
	reqs = make([]request, 0, sz.Requests+4*nt)
	for c := 0; len(reqs) < sz.Requests; c++ {
		var block []request
		for ti := range sz.Topologies {
			for k := 0; k < 3; k++ {
				t := warm[2*ti+(c+k)%2]
				edits, key := uniqueEdits(rng, devs[ti], seen, t)
				seen[key] = true
				block = append(block, request{Kind: kindDelta, Target: t, Edits: edits})
			}
			// Past the unique tuples the list repeats them, as cache
			// hits.
			block = append(block, fids[ti][c%len(fids[ti])])
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		reqs = append(reqs, block...)
	}
	return warm, reqs[:sz.Requests], 4 * nt, nil
}

// uniqueEdits draws one to three fast-path edits (qubit dropout,
// coupler dropout, retune) that topology.Canonicalize and ApplyEdits
// accept and that no earlier request on the same base used.
func uniqueEdits(rng *rand.Rand, dev *topology.Device, seen map[string]bool, t target) ([]topology.Edit, string) {
	for {
		n := 1 + rng.Intn(3)
		edits := make([]topology.Edit, 0, n)
		for len(edits) < n {
			switch rng.Intn(3) {
			case 0:
				edits = append(edits, topology.Edit{Op: topology.EditDisableQubit, Qubit: rng.Intn(dev.Qubits)})
			case 1:
				e := dev.Edges[rng.Intn(len(dev.Edges))]
				edits = append(edits, topology.Edit{Op: topology.EditDisableCoupler, Q1: e[0], Q2: e[1]})
			default:
				// Retunes land near the 5.00-5.14 GHz qubit tones.
				f := 4.9 + 0.3*rng.Float64()
				edits = append(edits, topology.Edit{Op: topology.EditRetune, Qubit: rng.Intn(dev.Qubits), Freq: float64(int(f*1000)) / 1000})
			}
		}
		canon, err := topology.Canonicalize(dev, edits)
		if err != nil {
			continue
		}
		if _, _, err := topology.ApplyEdits(dev, canon); err != nil {
			continue
		}
		key, _ := json.Marshal(struct { // plain values always marshal
			T target
			E []topology.Edit
		}{t, canon})
		if !seen[string(key)] {
			return edits, string(key)
		}
	}
}
