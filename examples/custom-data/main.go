// Custom data: using SeeDB as a library on your own tables — the
// "middleware on any DBMS" deployment of the paper, here with data loaded
// from CSV and rows appended programmatically, a custom reference query
// (D_R = an arbitrary Q′, Section 2), multiple aggregate functions, and a
// non-default distance function.
//
// Scenario: an e-commerce analyst compares this quarter's EMEA orders
// against last quarter's EMEA orders (custom reference — not the
// complement, not the whole table).
//
// Run with: go run ./examples/custom-data
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"seedb"
	"seedb/internal/distance"
)

// ordersCSV is a small embedded order log: quarter, region, category,
// channel, revenue, units.
const ordersCSV = `quarter,region,category,channel,revenue,units
Q1,EMEA,electronics,web,120,3
Q1,EMEA,electronics,store,110,3
Q1,EMEA,apparel,web,80,5
Q1,EMEA,apparel,store,85,5
Q1,EMEA,home,web,60,2
Q1,EMEA,home,store,65,2
Q1,AMER,electronics,web,150,4
Q1,AMER,apparel,web,90,6
Q2,EMEA,electronics,web,240,6
Q2,EMEA,electronics,store,70,2
Q2,EMEA,apparel,web,82,5
Q2,EMEA,apparel,store,84,5
Q2,EMEA,home,web,30,1
Q2,EMEA,home,store,95,3
Q2,AMER,electronics,web,155,4
Q2,AMER,apparel,web,88,6
`

func main() {
	ctx := context.Background()
	client := seedb.New()

	// Load the CSV with an explicit schema.
	schema, err := seedb.NewSchema(
		seedb.Column{Name: "quarter", Type: seedb.TypeString},
		seedb.Column{Name: "region", Type: seedb.TypeString},
		seedb.Column{Name: "category", Type: seedb.TypeString},
		seedb.Column{Name: "channel", Type: seedb.TypeString},
		seedb.Column{Name: "revenue", Type: seedb.TypeFloat},
		seedb.Column{Name: "units", Type: seedb.TypeFloat},
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.LoadCSV("orders", schema, seedb.RowLayout, strings.NewReader(ordersCSV)); err != nil {
		log.Fatal(err)
	}

	// Rows can also be appended programmatically.
	extra := [][]seedb.Value{
		{seedb.Str("Q2"), seedb.Str("EMEA"), seedb.Str("electronics"), seedb.Str("web"), seedb.Float(260), seedb.Float(7)},
		{seedb.Str("Q2"), seedb.Str("EMEA"), seedb.Str("home"), seedb.Str("web"), seedb.Float(25), seedb.Float(1)},
	}
	if err := client.AppendRows("orders", extra); err != nil {
		log.Fatal(err)
	}

	// Custom reference: compare Q2 EMEA (target) against Q1 EMEA — an
	// arbitrary reference query Q′, not the default D or the complement.
	req := seedb.Request{
		Table:          "orders",
		TargetWhere:    "quarter = 'Q2' AND region = 'EMEA'",
		Reference:      seedb.RefCustom,
		ReferenceWhere: "quarter = 'Q1' AND region = 'EMEA'",
		Dimensions:     []string{"category", "channel"},
		Measures:       []string{"revenue", "units"},
		// Multiple aggregate functions expand the view space: F × A × M.
		Aggs: []seedb.AggFunc{seedb.AggSum, seedb.AggAvg, seedb.AggCount},
	}

	// Jensen–Shannon distance instead of the default EMD.
	res, err := client.Recommend(ctx, req, seedb.Options{
		K:        4,
		Strategy: seedb.Sharing,
		Distance: distance.JS,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Q2 vs Q1 EMEA orders — most-changed views (Jensen–Shannon):")
	fmt.Println()
	for i, rec := range res.Recommendations {
		fmt.Printf("#%d  %s\n", i+1, seedb.RenderChartLabeled(rec, "Q2", "Q1"))
	}
	fmt.Printf("evaluated %d views (%d dims × %d measures × %d aggs) with %d queries\n",
		res.Metrics.Views, 2, 2, 3, res.Metrics.QueriesExecuted)
}
