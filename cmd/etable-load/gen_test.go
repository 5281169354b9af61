package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// testPools is a corpus-free parameter domain of the real one's shape.
func testPools() pools {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = prefix + " " + string(rune('A'+i)) + "'s" // exercises quoting
		}
		return out
	}
	p := pools{
		Conferences: names("Conf", 19), Countries: names("Country", 19),
		Authors: names("Author", namePoolSize), Institutions: names("Inst", namePoolSize),
		Papers: names("Paper", namePoolSize), Grams: []string{"an", "er", "ar", "on", "in", "ma"},
	}
	for y := 2000; y < 2016; y++ {
		p.Years = append(p.Years, y)
	}
	return p
}

func mustGenerate(t *testing.T, workload string, seed int64, client int) []request {
	t.Helper()
	reqs, err := generate(workload, seed, client, 10, false, testPools())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatalf("%s: empty list", workload)
	}
	return reqs
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		for client := 0; client < numClients; client++ {
			a := scriptBytes(mustGenerate(t, w, 42, client))
			b := scriptBytes(mustGenerate(t, w, 42, client))
			if !bytes.Equal(a, b) {
				t.Errorf("%s client %d: two generations of seed 42 differ", w, client)
			}
		}
		if bytes.Equal(scriptBytes(mustGenerate(t, w, 42, 0)), scriptBytes(mustGenerate(t, w, 42, 1))) {
			t.Errorf("%s: both clients got the same list", w)
		}
	}
	if _, err := generate("nope", 1, 0, 10, false, testPools()); err == nil {
		t.Error("unknown workload accepted")
	}
}

// kindShares returns each request kind's share of the list, in percent.
func kindShares(reqs []request) map[string]float64 {
	shares := map[string]float64{}
	for _, r := range reqs {
		shares[r.Kind] += 100 / float64(len(reqs))
	}
	return shares
}

func TestSeedChangesParametersNotShares(t *testing.T) {
	for _, w := range workloadNames {
		a, b := mustGenerate(t, w, 1, 0), mustGenerate(t, w, 2, 0)
		if bytes.Equal(scriptBytes(a), scriptBytes(b)) {
			t.Errorf("%s: seeds 1 and 2 generate the same list", w)
		}
		sa, sb := kindShares(a), kindShares(b)
		for kind := range sa {
			if d := math.Abs(sa[kind] - sb[kind]); d > 2 {
				t.Errorf("%s: share of %s moves %.1f points between seeds (%.1f%% vs %.1f%%)", w, kind, d, sa[kind], sb[kind])
			}
		}
		for kind := range sb {
			if _, ok := sa[kind]; !ok {
				t.Errorf("%s: kind %s only appears under seed 2", w, kind)
			}
		}
	}
}

// TestColdExploreNeverRepeatsASignature checks the property the
// workload exists for: the chain of ops since a script's open — which
// is what determines the pattern's signature — is never seen twice in a
// run, across both clients.
func TestColdExploreNeverRepeatsASignature(t *testing.T) {
	seen := map[string]bool{}
	for client := 0; client < numClients; client++ {
		var chain []string
		for _, r := range mustGenerate(t, wlColdExplore, 7, client) {
			if !r.singleOp() {
				continue
			}
			if r.Kind == "open" {
				chain = chain[:0]
				continue
			}
			chain = append(chain, r.Body)
			key := strings.Join(chain, "\x00")
			if seen[key] {
				t.Fatalf("client %d repeats the op chain %q", client, chain)
			}
			seen[key] = true
		}
	}
	if len(seen) < 1000 {
		t.Errorf("only %d non-open ops generated", len(seen))
	}
}

func TestOutOfCoreIsAPrefixOfStudyMix(t *testing.T) {
	for client := 0; client < numClients; client++ {
		study := mustGenerate(t, wlStudyMix, 5, client)
		ooc := mustGenerate(t, wlOutOfCore, 5, client)
		if len(ooc) >= len(study) {
			t.Fatalf("client %d: outofcore_mix has %d requests, study_mix %d: not a strict prefix", client, len(ooc), len(study))
		}
		if !bytes.Equal(scriptBytes(ooc), scriptBytes(study[:len(ooc)])) {
			t.Errorf("client %d: outofcore_mix is not a prefix of study_mix", client)
		}
		if last := ooc[len(ooc)-1]; last.Kind != "page" {
			t.Errorf("client %d: prefix ends mid-script, on a %s", client, last.Kind)
		}
	}
}

func TestListShapes(t *testing.T) {
	for _, w := range workloadNames {
		reqs := mustGenerate(t, w, 3, 0)
		if reqs[0].Kind != "create" {
			t.Errorf("%s: list starts with %s, not a session create", w, reqs[0].Kind)
		}
		b := warmBoundary(reqs)
		if share := float64(b) / float64(len(reqs)); share < warmShare || share > warmShare+0.05 {
			t.Errorf("%s: warm-up is %.1f%% of the list", w, 100*share)
		}
		if reqs[b-1].Task == reqs[b].Task {
			t.Errorf("%s: warm-up boundary splits script %d", w, reqs[b].Task)
		}
		ops, pages := 0, 0
		for _, r := range reqs[b:] {
			if r.Body != "" && !json.Valid([]byte(strings.ReplaceAll(r.Body, "{node}", "0"))) {
				t.Fatalf("%s: body is not JSON: %s", w, r.Body)
			}
			if r.singleOp() {
				ops++
			}
			if r.Kind == "page" {
				pages++
			}
		}
		// Both clients together must support a p95 (200 samples) of op
		// and of page latency at the benchmark's run length.
		if ops < 110 || pages < 110 {
			t.Errorf("%s: one client samples %d ops and %d pages; two such lists cannot support a p95", w, ops, pages)
		}
	}
	if smoke, full := taskCount(wlStudyMix, 10, true), taskCount(wlStudyMix, 10, false); smoke*15 > full {
		t.Errorf("smoke runs %d scripts against %d: not about 1/20", smoke, full)
	}
}
