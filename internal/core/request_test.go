package core

import (
	"reflect"
	"testing"

	"seedb/internal/distance"
)

// TestParseInvertsString pins the enums' textual form: every value
// round-trips through its paper name, and every alias the HTTP API and
// CLI accepted before the parsers moved here still resolves.
func TestParseInvertsString(t *testing.T) {
	for _, s := range []Strategy{NoOpt, Sharing, Comb, CombEarly} {
		if got, err := ParseStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, p := range []PruningScheme{NoPruning, CIPruning, MABPruning, RandomPruning} {
		if got, err := ParsePruning(p.String()); err != nil || got != p {
			t.Errorf("ParsePruning(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, m := range []RefMode{RefAll, RefComplement, RefCustom} {
		if got, err := ParseRefMode(m.String()); err != nil || got != m {
			t.Errorf("ParseRefMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for alias, want := range map[string]Strategy{
		"noopt": NoOpt, "sharing": Sharing, "comb": Comb, "combearly": CombEarly, "early": CombEarly, "CombEarly": CombEarly,
	} {
		if got, err := ParseStrategy(alias); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	for alias, want := range map[string]PruningScheme{"none": NoPruning, "ci": CIPruning, "mab": MABPruning, "Mab": MABPruning} {
		if got, err := ParsePruning(alias); err != nil || got != want {
			t.Errorf("ParsePruning(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	for alias, want := range map[string]RefMode{"all": RefAll, "complement": RefComplement, "custom": RefCustom} {
		if got, err := ParseRefMode(alias); err != nil || got != want {
			t.Errorf("ParseRefMode(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	// The empty string is not a name: defaulting is Resolve's job.
	if _, err := ParseStrategy(""); err == nil {
		t.Error(`ParseStrategy("") succeeded`)
	}
	if _, err := ParsePruning(""); err == nil {
		t.Error(`ParsePruning("") succeeded`)
	}
	if _, err := ParseRefMode(""); err == nil {
		t.Error(`ParseRefMode("") succeeded`)
	}
}

// TestResolveDefaultsAndErrors pins the textual defaults and the
// messages a client sees for a name Resolve does not know.
func TestResolveDefaultsAndErrors(t *testing.T) {
	req, opts, err := RecommendRequest{Table: "t", TargetWhere: "a = 1"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Strategy != Comb || opts.Pruning != CIPruning || opts.Distance != distance.EMD ||
		req.Reference != RefAll || !opts.EnableCache {
		t.Errorf("defaults = %v/%v/%v/%v cache=%v, want COMB/CI/EMD/ALL cache=true",
			opts.Strategy, opts.Pruning, opts.Distance, req.Reference, opts.EnableCache)
	}
	off := false
	req, opts, err = RecommendRequest{
		Reference: "Custom", ReferenceWhere: "b = 2", Strategy: "EARLY", Pruning: "none", Distance: "js",
		Aggregates: []string{"avg", "Sum"}, Cache: &off,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if req.Reference != RefCustom || req.ReferenceWhere != "b = 2" || opts.Strategy != CombEarly ||
		opts.Pruning != NoPruning || opts.Distance != distance.JS || opts.EnableCache ||
		!reflect.DeepEqual(req.Aggs, []AggFunc{AggAvg, AggSum}) {
		t.Errorf("resolved %+v %+v", req, opts)
	}
	for _, tc := range []struct {
		req  RecommendRequest
		want string
	}{
		{RecommendRequest{Strategy: "fastest"}, `unknown strategy "fastest"`},
		{RecommendRequest{Pruning: "harsh"}, `unknown pruning "harsh"`},
		{RecommendRequest{Reference: "others"}, `unknown reference "others"`},
		{RecommendRequest{Distance: "manhattan"}, `distance: unknown function "MANHATTAN"`},
	} {
		if _, _, err := tc.req.Resolve(); err == nil || err.Error() != tc.want {
			t.Errorf("Resolve(%+v) error = %v, want %s", tc.req, err, tc.want)
		}
	}
}

// engineOnlyOptions names every Options field the textual request
// cannot set, with what it is for; Resolve leaves each at its zero
// value, which withDefaults turns into the engine default. Every other
// field of Options and Request must be reachable from a
// RecommendRequest. A knob kept for the reproduction scorecard
// (internal/bench, docs/REPRODUCTION.md) names the rows that set it; a
// knob no row sets says so.
var engineOnlyOptions = map[string]string{
	"Phases":                "no scorecard row (every row keeps the automatic count); core and conformance tests pin phase counts",
	"Parallelism":           "deployment: concurrent view queries, GOMAXPROCS by default; no scorecard row",
	"GroupBy":               "scorecard rows fig7a.queries (GroupBySingle) and fig8b.binpack (GroupByBinPack, GroupByMaxN)",
	"MemoryBudget":          "scorecard row fig8b.binpack: BP under each store's budget",
	"MaxGroupBy":            "scorecard row fig8b.binpack: the MAX_GB baseline",
	"MaxAggregatesPerQuery": "scorecard row fig7a.queries: the nagg sweep",
	"Delta":                 "no scorecard row; random_test checks its default",
	"ConfidenceScale":       "no scorecard row; engine_test and conformancetest narrow the interval to force pruning on small tables",
	"Seed":                  "scorecard rows fig11.* and fig12.*: the RANDOM baseline",
	"KeepAllViews":          "scorecard rows fig10a.bank-gaps, fig10b.diab-cluster, fig11.*, fig12.*, fig15.*, distance.top10 and early.quality: the exact oracle ranking",
}

// TestTextualRequestCoversEveryField is the "one schema" guard: every
// field of Request and Options is either settable through some field of
// RecommendRequest, or named in engineOnlyOptions — and a field named
// there must really be out of the textual request's reach. Likewise
// every RecommendRequest field reaches the engine, except the two the
// server itself acts on.
func TestTextualRequestCoversEveryField(t *testing.T) {
	// One valid non-default probe value per textual field.
	off := false
	probes := map[string]any{
		"Table": "x", "TargetWhere": "x", "ReferenceWhere": "x",
		"Reference": "complement", "Strategy": "noopt", "Pruning": "mab", "Distance": "KL",
		"K": 7, "ScanParallelism": 7,
		"Dimensions": []string{"x"}, "Measures": []string{"x"}, "Aggregates": []string{"sum"},
		"Cache": &off, "AllowPartial": true, "ServeStale": true,
		"Backend": "x", "Trace": true,
	}
	serverOnly := map[string]bool{"Backend": true, "Trace": true}

	baseReq, baseOpts, err := RecommendRequest{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{} // "Request.F" / "Options.F"
	diff := func(prefix string, base, got any) (changed bool) {
		bv, gv := reflect.ValueOf(base), reflect.ValueOf(got)
		for i := 0; i < bv.NumField(); i++ {
			if !reflect.DeepEqual(bv.Field(i).Interface(), gv.Field(i).Interface()) {
				reached[prefix+bv.Type().Field(i).Name] = true
				changed = true
			}
		}
		return changed
	}
	rt := reflect.TypeOf(RecommendRequest{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		probe, ok := probes[name]
		if !ok {
			t.Fatalf("RecommendRequest.%s: teach this test a probe value for it", name)
		}
		var rr RecommendRequest
		reflect.ValueOf(&rr).Elem().Field(i).Set(reflect.ValueOf(probe))
		req, opts, err := rr.Resolve()
		if err != nil {
			t.Fatalf("probing %s: %v", name, err)
		}
		changedReq := diff("Request.", baseReq, req)
		changed := diff("Options.", baseOpts, opts) || changedReq
		switch {
		case serverOnly[name] && changed:
			t.Errorf("RecommendRequest.%s is listed as server-only but reaches the engine", name)
		case !serverOnly[name] && !changed:
			t.Errorf("RecommendRequest.%s sets nothing in Request or Options", name)
		}
	}

	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		_, engineOnly := engineOnlyOptions[name]
		switch {
		case engineOnly && reached["Options."+name]:
			t.Errorf("Options.%s is listed as engine-only but the textual request sets it", name)
		case !engineOnly && !reached["Options."+name]:
			t.Errorf("Options.%s is neither settable through RecommendRequest nor listed in engineOnlyOptions", name)
		}
	}
	for name := range engineOnlyOptions {
		if _, ok := ot.FieldByName(name); !ok {
			t.Errorf("engineOnlyOptions names %q, which is not an Options field", name)
		}
	}
	qt := reflect.TypeOf(Request{})
	for i := 0; i < qt.NumField(); i++ {
		if name := qt.Field(i).Name; !reached["Request."+name] {
			t.Errorf("Request.%s is not settable through RecommendRequest", name)
		}
	}
}
