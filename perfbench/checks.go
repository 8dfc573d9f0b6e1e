package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
)

// The correctness checks are pure functions of the answers, so the
// tests can show that each one fires on a corrupted answer.

// checkOK requires a complete 200 answer with a JSON body.
func checkOK(a *answer) error {
	if a.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", a.q.key, a.status, bytes.TrimSpace(a.body))
	}
	if a.missing != "" {
		return fmt.Errorf("%s: partial answer, shards %s missing", a.q.key, a.missing)
	}
	if !json.Valid(a.body) {
		return fmt.Errorf("%s: body is not JSON", a.q.key)
	}
	return nil
}

// imSeeds is the part of an /api/im answer the checks read.
type imSeeds struct {
	Seeds []struct {
		ID     int32   `json:"id"`
		Spread float64 `json:"spread"`
	} `json:"seeds"`
}

// checkIM requires k distinct seeds and returns the answer's spread.
// A single process reports cumulative spreads, which must not decrease
// along the seed list; a coordinator reports per-seed merged spreads
// ranked in descending order (ranked=true). Either way the answer's
// spread is the largest value in the list.
func checkIM(body []byte, k int, ranked bool) (float64, error) {
	var r imSeeds
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("im answer does not decode: %w", err)
	}
	if len(r.Seeds) != k {
		return 0, fmt.Errorf("im answer has %d seeds, want %d", len(r.Seeds), k)
	}
	seen := make(map[int32]bool, k)
	top := 0.0
	for i, s := range r.Seeds {
		if seen[s.ID] {
			return 0, fmt.Errorf("im answer repeats seed %d", s.ID)
		}
		seen[s.ID] = true
		if i > 0 {
			prev := r.Seeds[i-1].Spread
			if !ranked && s.Spread < prev {
				return 0, fmt.Errorf("im cumulative spread decreases at seed %d (%g < %g)", i, s.Spread, prev)
			}
			if ranked && s.Spread > prev {
				return 0, fmt.Errorf("im ranked spread increases at seed %d (%g > %g)", i, s.Spread, prev)
			}
		}
		top = max(top, s.Spread)
	}
	if top <= 0 {
		return 0, fmt.Errorf("im answer has no positive spread")
	}
	return top, nil
}

// checkCache requires every answer to carry one of the expected cache
// outcomes (X-Octopus-Cache: hit, miss, or stale for an entry left
// behind by an older generation).
func checkCache(as []*answer, want ...string) error {
	for _, a := range as {
		if !slices.Contains(want, a.cache) {
			return fmt.Errorf("%s: cache %q, want %s", a.q.key, a.cache, strings.Join(want, " or "))
		}
	}
	return nil
}

// checkSameBody requires two answers to the same read to be
// byte-identical: a cached replay against its first answer, or a
// mapped server against a heap one.
func checkSameBody(what string, a, b []byte) error {
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: answers differ (%d vs %d bytes)", what, len(a), len(b))
	}
	return nil
}

// fleetStatus is the part of /api/status a coordinator merges exactly:
// node ids and models are global, edges and actions are partitioned.
type fleetStatus struct {
	Nodes, Edges, Actions, Topics, Vocabulary int
}

// checkFleetStatus requires the coordinator's merged status to equal
// the single process's on the exactly merged fields.
func checkFleetStatus(single, coord []byte) error {
	var s, c fleetStatus
	if err := json.Unmarshal(single, &s); err != nil {
		return fmt.Errorf("single-process status does not decode: %w", err)
	}
	if err := json.Unmarshal(coord, &c); err != nil {
		return fmt.Errorf("coordinator status does not decode: %w", err)
	}
	if s != c {
		return fmt.Errorf("coordinator status %+v, single process %+v", c, s)
	}
	return nil
}
