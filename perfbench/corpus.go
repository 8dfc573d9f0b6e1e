package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/tic"
)

// imK is the seed count of every keyword-IM read.
const imK = 10

// corpusSeed seeds the corpus. It is fixed, so runs at different
// --seed values ask different reads and replay different events over
// the same corpus: the cost of a corpus's hubs would otherwise move
// every latency by more than a regression bound from seed to seed.
const corpusSeed = 0x0c70b05

// genCorpus generates the citation corpus every workload runs on.
// EdgeScale 0.1 keeps the ground-truth activation probabilities in the
// range EM learns from real logs; the models are adopted as ground
// truth, so EM stays out of set-up.
func genCorpus(opt options) (*datagen.Dataset, error) {
	return datagen.Citation(datagen.CitationConfig{
		Authors:   opt.authors,
		Topics:    6,
		EdgeScale: 0.1,
		Seed:      corpusSeed,
	})
}

// buildConfig is the core.Config every workload builds with, adopting
// prop as the propagation model.
func buildConfig(ds *datagen.Dataset, prop *tic.Model) core.Config {
	return core.Config{
		GroundTruth:      prop,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             corpusSeed,
	}
}

// gen draws the seeded read sequence of a workload. All reads are
// generated before timing starts.
type gen struct {
	r       *rand.Rand
	vocab   []string // model vocabulary, most used first
	actors  []int32  // users with at least one action, shuffled
	others  []int32  // every user, shuffled
	names   []string // display names by node id
	usedIM  map[string]bool
	usedPfx map[string]bool
	radar   []string // vocabulary in radar order
	ai, oi  int
	ri      int
}

func newGen(ds *datagen.Dataset, seed uint64) *gen {
	g := &gen{
		r:       rand.New(rand.NewSource(int64(seed ^ 0x9e3779b97f4a7c15))),
		usedIM:  map[string]bool{},
		usedPfx: map[string]bool{},
		names:   ds.Graph.Names(),
	}
	freq := map[string]int{}
	acted := make([]bool, ds.Graph.NumNodes())
	for _, ep := range ds.Log.Episodes {
		for _, w := range ep.Item.Keywords {
			freq[w]++
		}
		for _, a := range ep.Actions {
			acted[a.User] = true
		}
	}
	g.vocab = append(g.vocab, ds.TruthWords.Vocab()...)
	sort.SliceStable(g.vocab, func(i, j int) bool { return freq[g.vocab[i]] > freq[g.vocab[j]] })
	for u, ok := range acted {
		if ok {
			g.actors = append(g.actors, int32(u))
		}
		g.others = append(g.others, int32(u))
	}
	g.r.Shuffle(len(g.actors), func(i, j int) { g.actors[i], g.actors[j] = g.actors[j], g.actors[i] })
	g.r.Shuffle(len(g.others), func(i, j int) { g.others[i], g.others[j] = g.others[j], g.others[i] })
	return g
}

// imTarget returns an /api/im read for 1-3 vocabulary keywords whose
// set was never asked before, so the read misses the result cache.
func (g *gen) imTarget() string {
	for {
		n := 1 + g.r.Intn(3)
		set := map[string]bool{}
		for len(set) < n {
			set[g.vocab[g.r.Intn(len(g.vocab))]] = true
		}
		words := make([]string, 0, n)
		for w := range set {
			words = append(words, w)
		}
		sort.Strings(words)
		key := strings.Join(words, " ")
		if g.usedIM[key] {
			continue
		}
		g.usedIM[key] = true
		return imPath(words)
	}
}

func imPath(words []string) string {
	return fmt.Sprintf("/api/im?q=%s&k=%d", url.QueryEscape(strings.Join(words, " ")), imK)
}

// actor returns the next user with actions (a suggest target); it
// returns each user once before any repeats.
func (g *gen) actor() int32 {
	u := g.actors[g.ai%len(g.actors)]
	g.ai++
	return u
}

// user returns the next user of the whole graph (a paths target).
func (g *gen) user() int32 {
	u := g.others[g.oi%len(g.others)]
	g.oi++
	return u
}

func suggestPath(u int32) string { return fmt.Sprintf("/api/suggest?user=%d", u) }
func pathsPath(u int32) string   { return fmt.Sprintf("/api/paths?user=%d", u) }

// completeTarget returns a name prefix not asked before: the first 3 or
// more letters of a random user's display name. (First names repeat, so
// short prefixes run out; whole names are unique.)
func (g *gen) completeTarget() string {
	for {
		name := g.names[g.r.Intn(len(g.names))]
		if len(name) < 3 {
			continue
		}
		p := name[:3+g.r.Intn(len(name)-2)]
		if g.usedPfx[p] {
			continue
		}
		g.usedPfx[p] = true
		return "/api/complete?prefix=" + url.QueryEscape(p) + "&k=8"
	}
}

// radarTarget returns radar reads over the vocabulary in a seeded
// order, each keyword once per pass.
func (g *gen) radarTarget() string {
	if g.ri == 0 {
		g.radar = append([]string(nil), g.vocab...)
		g.r.Shuffle(len(g.radar), func(i, j int) { g.radar[i], g.radar[j] = g.radar[j], g.radar[i] })
	}
	w := g.radar[g.ri%len(g.radar)]
	g.ri++
	return "/api/radar?keyword=" + url.QueryEscape(w)
}

// heldOut splits every 16th edge of g off into a shuffled list of real
// edges for the live stream to replay, returning the base graph.
func heldOut(full *graph.Graph, r *rand.Rand) (*graph.Graph, [][2]graph.NodeID) {
	bb := graph.NewBuilder(full.NumNodes())
	var held [][2]graph.NodeID
	i := 0
	full.EachEdge(func(_ graph.EdgeID, u, v graph.NodeID) {
		if i%16 == 15 {
			held = append(held, [2]graph.NodeID{u, v})
		} else {
			bb.AddEdge(u, v)
		}
		i++
	})
	for u := 0; u < full.NumNodes(); u++ {
		bb.SetName(graph.NodeID(u), full.Name(graph.NodeID(u)))
	}
	r.Shuffle(len(held), func(a, b int) { held[a], held[b] = held[b], held[a] })
	return bb.Build(), held
}
