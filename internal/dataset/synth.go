package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"seedb/internal/sqldb"
)

// This file is the production-scale half of the dataset package: where
// spec.go reproduces the paper's Table 1 datasets with planted utility
// profiles, SynthSpec describes arbitrary realistic tables — per-column
// Zipf/normal/weighted/uniform distributions, configurable
// cardinalities, correlated column groups (categorical hierarchies like
// region→state→city and numeric dependencies like revenue~quantity),
// and NULL rates — generated deterministically from a seed and streamed
// row by row, so producing millions of rows costs O(1) memory beyond
// the destination. The load harness (internal/load, cmd/seedb-loadgen)
// uses these specs to shape north-star traffic; the differential tests
// reuse them (with quantized floats) as a conformance-proven source of
// skewed data.

// Distribution names accepted by SynthColumn.Dist.
const (
	// DistUniform draws every value (or numeric point in [Min, Max])
	// with equal probability. The default when Dist is empty.
	DistUniform = "uniform"
	// DistZipf draws value ranks from a Zipf distribution with exponent
	// ZipfS (> 1; default 1.2): rank 0 is most popular. For numeric
	// columns the rank offsets Min, giving heavy-tailed counts.
	DistZipf = "zipf"
	// DistNormal draws from a Gaussian. For numeric columns: mean Mean,
	// standard deviation StdDev. For categorical columns: a Gaussian
	// over value indices centred mid-cardinality.
	DistNormal = "normal"
	// DistWeighted draws categorical values with explicit Weights
	// (normalized internally; they need not sum to 1). For bool columns
	// Weights[0] is P(true).
	DistWeighted = "weighted"
)

// SynthColumn describes one generated column. JSON tags make specs
// file-loadable for cmd/seedb-datagen -synth and cmd/seedb-loadgen
// -spec.
type SynthColumn struct {
	// Name is the column name.
	Name string `json:"name"`
	// Type is one of "string", "int", "float", "bool".
	Type string `json:"type"`
	// Dist selects the sampling distribution (default uniform).
	Dist string `json:"dist,omitempty"`

	// Cardinality is the number of distinct values for categorical
	// (string) columns without an explicit Values list. Values beyond
	// the list (or without one) are synthesized as "<name>_<i>",
	// zero-padded so lexicographic order matches index order.
	Cardinality int `json:"cardinality,omitempty"`
	// Values optionally names the distinct values of a string column.
	Values []string `json:"values,omitempty"`
	// Weights drives DistWeighted (one weight per value; normalized).
	// For bool columns, Weights[0] is P(true).
	Weights []float64 `json:"weights,omitempty"`
	// ZipfS is the Zipf exponent for DistZipf (must be > 1; default 1.2).
	ZipfS float64 `json:"zipf_s,omitempty"`

	// Min and Max bound numeric columns (inclusive). Uniform draws
	// inside them; normal and correlated draws clamp into them when
	// Max > Min.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Mean and StdDev parameterize DistNormal, and Mean doubles as the
	// intercept (and StdDev as the noise) of correlated numeric columns.
	Mean   float64 `json:"mean,omitempty"`
	StdDev float64 `json:"stddev,omitempty"`
	// Quantum, when > 0, rounds float values to its multiples. Setting
	// it to a negative power of two (0.25, 0.125) makes every partial
	// sum exactly representable, which is what lets the differential
	// tests compare sharded/parallel execution bit-for-bit.
	Quantum float64 `json:"quantum,omitempty"`

	// NullRate is the probability a value is NULL (0 ≤ rate < 1).
	NullRate float64 `json:"null_rate,omitempty"`

	// Parent names an earlier column this one correlates with.
	//
	// String column with string parent: a hierarchy level. The column's
	// cardinality is parentCardinality×Fanout and each value belongs to
	// exactly one parent value (value index = parentIndex*Fanout +
	// child draw), so region→state→city chains stay referentially
	// consistent. The child draw uses Dist over [0, Fanout).
	//
	// Numeric column with numeric parent: value = Scale·parent + Mean +
	// Gaussian noise with StdDev, then clamped/quantized — price ~
	// quantity correlations. A NULL parent contributes 0.
	Parent string `json:"parent,omitempty"`
	// Fanout is the number of child values per parent value (hierarchy
	// columns only; default 2).
	Fanout int `json:"fanout,omitempty"`
	// Scale is the linear coefficient on Parent for correlated numeric
	// columns (default 1).
	Scale float64 `json:"scale,omitempty"`
}

// categorical reports whether the column draws from a discrete value
// index space (strings).
func (c SynthColumn) categorical() bool { return c.Type == "string" }

// SynthSpec fully describes one generatable synthetic table.
type SynthSpec struct {
	// Name is the table name.
	Name string `json:"name"`
	// Rows is the row count to generate.
	Rows int `json:"rows"`
	// Seed makes generation deterministic; two generators with equal
	// specs emit identical rows.
	Seed int64 `json:"seed"`
	// Columns are generated left to right; Parent references must point
	// at earlier columns.
	Columns []SynthColumn `json:"columns"`
}

// WithRows returns a copy generating n rows.
func (s SynthSpec) WithRows(n int) SynthSpec {
	s.Rows = n
	return s
}

// WithSeed returns a copy generating from the given seed.
func (s SynthSpec) WithSeed(seed int64) SynthSpec {
	s.Seed = seed
	return s
}

// columnType maps the spec's type name to the engine's column type.
func columnType(name string) (sqldb.ColumnType, error) {
	switch strings.ToLower(name) {
	case "string":
		return sqldb.TypeString, nil
	case "int":
		return sqldb.TypeInt, nil
	case "float":
		return sqldb.TypeFloat, nil
	case "bool":
		return sqldb.TypeBool, nil
	default:
		return 0, fmt.Errorf("unknown column type %q (want string/int/float/bool)", name)
	}
}

// Schema returns the sqldb schema the spec generates.
func (s SynthSpec) Schema() (*sqldb.Schema, error) {
	cols := make([]sqldb.Column, len(s.Columns))
	for i, c := range s.Columns {
		t, err := columnType(c.Type)
		if err != nil {
			return nil, fmt.Errorf("dataset: synth column %s: %w", c.Name, err)
		}
		cols[i] = sqldb.Column{Name: c.Name, Type: t}
	}
	return sqldb.NewSchema(cols...)
}

// columnIndex resolves a column by name.
func (s SynthSpec) columnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Cardinality returns the distinct-value count of a string column
// (resolving hierarchy fan-outs), and 0 for non-string columns or
// unknown names.
func (s SynthSpec) Cardinality(name string) int {
	i := s.columnIndex(name)
	if i < 0 || !s.Columns[i].categorical() {
		return 0
	}
	return s.cardinalityAt(i)
}

// cardinalityAt resolves the value-index space of categorical column i.
func (s SynthSpec) cardinalityAt(i int) int {
	c := s.Columns[i]
	if c.Parent != "" {
		p := s.columnIndex(c.Parent)
		if p < 0 {
			return 0
		}
		fan := c.Fanout
		if fan <= 0 {
			fan = 2
		}
		return s.cardinalityAt(p) * fan
	}
	if len(c.Values) > 0 {
		return len(c.Values)
	}
	return c.Cardinality
}

// ValueName returns the name of value index i of a categorical column:
// the explicit Values entry when present, else "<name>_<i>" zero-padded
// to the column's cardinality width.
func (s SynthSpec) ValueName(col string, i int) string {
	ci := s.columnIndex(col)
	if ci < 0 {
		return ""
	}
	c := s.Columns[ci]
	if i < len(c.Values) {
		return c.Values[i]
	}
	card := s.cardinalityAt(ci)
	width := len(fmt.Sprintf("%d", card-1))
	return fmt.Sprintf("%s_%0*d", c.Name, width, i)
}

// Validate checks the spec is generatable and reports the first problem.
func (s SynthSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("dataset: synth spec needs a name")
	}
	if s.Rows < 0 {
		return fmt.Errorf("dataset: synth spec %s: negative row count %d", s.Name, s.Rows)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("dataset: synth spec %s: needs at least one column", s.Name)
	}
	seen := map[string]bool{}
	for i, c := range s.Columns {
		where := fmt.Sprintf("dataset: synth spec %s column %s", s.Name, c.Name)
		if c.Name == "" {
			return fmt.Errorf("dataset: synth spec %s: column %d has no name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("%s: duplicate name", where)
		}
		seen[c.Name] = true
		if _, err := columnType(c.Type); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		switch c.Dist {
		case "", DistUniform, DistZipf, DistNormal, DistWeighted:
		default:
			return fmt.Errorf("%s: unknown dist %q", where, c.Dist)
		}
		if c.NullRate < 0 || c.NullRate >= 1 {
			return fmt.Errorf("%s: null_rate %v outside [0, 1)", where, c.NullRate)
		}
		if c.ZipfS != 0 && c.ZipfS <= 1 {
			return fmt.Errorf("%s: zipf_s must be > 1, got %v", where, c.ZipfS)
		}
		if c.Dist == DistWeighted {
			want := 1 // bool: Weights[0] = P(true)
			if c.categorical() {
				want = len(c.Values)
				if want == 0 {
					want = c.Cardinality
				}
			}
			if c.Type == "int" || c.Type == "float" {
				return fmt.Errorf("%s: weighted applies to string/bool columns", where)
			}
			if len(c.Weights) != want {
				return fmt.Errorf("%s: %d weights for %d values", where, len(c.Weights), want)
			}
			sum := 0.0
			for _, w := range c.Weights {
				if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return fmt.Errorf("%s: bad weight %v", where, w)
				}
				sum += w
			}
			if sum <= 0 {
				return fmt.Errorf("%s: weights sum to %v", where, sum)
			}
		}
		if c.Parent != "" {
			p := s.columnIndex(c.Parent)
			if p < 0 || p >= i {
				return fmt.Errorf("%s: parent %q must name an earlier column", where, c.Parent)
			}
			pc := s.Columns[p]
			switch {
			case c.categorical():
				if !pc.categorical() {
					return fmt.Errorf("%s: hierarchy parent %q must be a string column", where, c.Parent)
				}
				if c.Fanout < 0 {
					return fmt.Errorf("%s: negative fanout %d", where, c.Fanout)
				}
			case c.Type == "int" || c.Type == "float":
				if pc.Type != "int" && pc.Type != "float" {
					return fmt.Errorf("%s: correlated parent %q must be numeric", where, c.Parent)
				}
			default:
				return fmt.Errorf("%s: bool columns cannot correlate with %q", where, c.Parent)
			}
		}
		if c.categorical() && c.Parent == "" && len(c.Values) == 0 && c.Cardinality < 1 {
			return fmt.Errorf("%s: needs values or a positive cardinality", where)
		}
		if (c.Type == "int" || c.Type == "float") && c.Parent == "" &&
			(c.Dist == "" || c.Dist == DistUniform || c.Dist == DistZipf) && c.Max < c.Min {
			return fmt.Errorf("%s: max %v < min %v", where, c.Max, c.Min)
		}
	}
	return nil
}

// rowState carries the per-row draws dependents read: the categorical
// value index and the numeric value of every already-generated column.
type rowState struct {
	catIdx []int     // value index of categorical columns (-1 = NULL)
	num    []float64 // value of numeric columns (0 when NULL)
	isNull []bool
}

// RowGen is a pull-based deterministic row generator: Next returns the
// spec's rows one at a time in a reused buffer. It is the primitive the
// streaming builders (BuildSynth, StreamSynthCSV) and the load driver's
// ingest traffic share; it is not safe for concurrent use.
type RowGen struct {
	spec    SynthSpec
	rng     *rand.Rand
	zipfs   []*rand.Zipf // per-column, nil unless DistZipf
	cards   []int        // categorical value-space sizes
	parents []int        // resolved parent column indices (-1 = none)
	fanouts []int
	cumw    [][]float64 // weighted: cumulative normalized weights
	// names holds each categorical column's cell values by index, each
	// formatted by ValueName the first time it is drawn (a zero Value
	// is not yet filled). Nil for columns wider than maxNameTable,
	// which format every cell.
	names [][]sqldb.Value
	row   []sqldb.Value
	st    rowState
}

// maxNameTable caps a categorical column's name table, so a generator's
// memory stays independent of the cardinalities a spec declares.
const maxNameTable = 1 << 16

// NewRowGen validates the spec and prepares a generator. A zero seed
// falls back to the spec's Seed.
func NewRowGen(spec SynthSpec, seed int64) (*RowGen, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = spec.Seed
	}
	n := len(spec.Columns)
	g := &RowGen{
		spec:    spec,
		rng:     rand.New(rand.NewSource(seed)),
		zipfs:   make([]*rand.Zipf, n),
		cards:   make([]int, n),
		parents: make([]int, n),
		fanouts: make([]int, n),
		cumw:    make([][]float64, n),
		names:   make([][]sqldb.Value, n),
		row:     make([]sqldb.Value, n),
		st: rowState{
			catIdx: make([]int, n),
			num:    make([]float64, n),
			isNull: make([]bool, n),
		},
	}
	for i, c := range spec.Columns {
		g.parents[i] = -1
		if c.Parent != "" {
			g.parents[i] = spec.columnIndex(c.Parent)
		}
		g.fanouts[i] = c.Fanout
		if g.fanouts[i] <= 0 {
			g.fanouts[i] = 2
		}
		if c.categorical() {
			g.cards[i] = spec.cardinalityAt(i)
			if g.cards[i] <= maxNameTable {
				g.names[i] = make([]sqldb.Value, g.cards[i])
			}
		}
		// The discrete space Zipf ranks span: child slots for hierarchy
		// levels, the value space for flat categoricals, the [Min, Max]
		// span for ints.
		space := 0
		switch {
		case c.categorical() && c.Parent != "":
			space = g.fanouts[i]
		case c.categorical():
			space = g.cards[i]
		case c.Type == "int" && c.Parent == "":
			space = int(c.Max-c.Min) + 1
		}
		if c.Dist == DistZipf && space > 0 {
			zs := c.ZipfS
			if zs == 0 {
				zs = 1.2
			}
			// rand.Zipf draws from [0, imax]; imax 0 is a single value.
			g.zipfs[i] = rand.NewZipf(g.rng, zs, 1, uint64(space-1))
		}
		if c.Dist == DistWeighted && len(c.Weights) > 0 {
			sum := 0.0
			for _, w := range c.Weights {
				sum += w
			}
			cum := make([]float64, len(c.Weights))
			acc := 0.0
			for j, w := range c.Weights {
				acc += w / sum
				cum[j] = acc
			}
			cum[len(cum)-1] = 1 // absorb rounding
			g.cumw[i] = cum
		}
	}
	return g, nil
}

// name returns the cell value of index idx of categorical column i.
func (g *RowGen) name(i, idx int) sqldb.Value {
	names := g.names[i]
	if names == nil {
		return sqldb.Str(g.spec.ValueName(g.spec.Columns[i].Name, idx))
	}
	if names[idx].IsNull() {
		names[idx] = sqldb.Str(g.spec.ValueName(g.spec.Columns[i].Name, idx))
	}
	return names[idx]
}

// drawIndex samples a value index in [0, space) under the column's
// distribution.
func (g *RowGen) drawIndex(i, space int) int {
	if space <= 1 {
		return 0
	}
	c := g.spec.Columns[i]
	switch c.Dist {
	case DistZipf:
		if z := g.zipfs[i]; z != nil {
			return int(z.Uint64())
		}
		return g.rng.Intn(space)
	case DistNormal:
		// Gaussian over indices centred mid-space; σ = space/6 puts
		// ±3σ at the edges.
		mu, sigma := float64(space-1)/2, float64(space)/6
		v := int(math.Round(g.rng.NormFloat64()*sigma + mu))
		if v < 0 {
			v = 0
		}
		if v >= space {
			v = space - 1
		}
		return v
	case DistWeighted:
		u := g.rng.Float64()
		for j, cw := range g.cumw[i] {
			if u <= cw {
				return j
			}
		}
		return space - 1
	default:
		return g.rng.Intn(space)
	}
}

// drawNumeric samples a float under the column's distribution and
// correlation, before clamping/quantization.
func (g *RowGen) drawNumeric(i int) float64 {
	c := g.spec.Columns[i]
	if p := g.parents[i]; p >= 0 {
		scale := c.Scale
		if scale == 0 {
			scale = 1
		}
		return scale*g.st.num[p] + c.Mean + g.rng.NormFloat64()*c.StdDev
	}
	switch c.Dist {
	case DistNormal:
		return g.rng.NormFloat64()*c.StdDev + c.Mean
	case DistZipf:
		if c.Type == "int" {
			if z := g.zipfs[i]; z != nil {
				return c.Min + float64(z.Uint64())
			}
		}
		// Float Zipf: inverse-power transform of a uniform draw over
		// [Min, Max] — heavy mass near Min.
		zs := c.ZipfS
		if zs == 0 {
			zs = 1.2
		}
		u := g.rng.Float64()
		frac := math.Pow(u, zs)
		return c.Min + frac*(c.Max-c.Min)
	default:
		if c.Type == "int" {
			return c.Min + float64(g.rng.Intn(int(c.Max-c.Min)+1))
		}
		return c.Min + g.rng.Float64()*(c.Max-c.Min)
	}
}

// finishNumeric clamps into [Min, Max] (when Max > Min) and quantizes.
func finishNumeric(c SynthColumn, v float64) float64 {
	if c.Max > c.Min {
		if v < c.Min {
			v = c.Min
		}
		if v > c.Max {
			v = c.Max
		}
	}
	if c.Quantum > 0 {
		v = math.Round(v/c.Quantum) * c.Quantum
	}
	return v
}

// Next generates one row. The returned slice is reused by the following
// call; consumers that retain rows must copy. Every column consumes its
// random draws in a fixed order, so generation is deterministic
// regardless of how values are consumed.
func (g *RowGen) Next() []sqldb.Value {
	for i, c := range g.spec.Columns {
		// The value is drawn whether or not the cell prints NULL, so
		// every column consumes a fixed draw pattern and dependents
		// always have a hidden parent value to correlate with.
		isNull := c.NullRate > 0 && g.rng.Float64() < c.NullRate
		g.st.isNull[i] = false
		switch {
		case c.categorical():
			var idx int
			if p := g.parents[i]; p >= 0 {
				fan := g.fanouts[i]
				pidx := g.st.catIdx[p]
				if pidx < 0 {
					pidx = 0 // NULL parent: attach to its first value
				}
				idx = pidx*fan + g.drawIndex(i, fan)
			} else {
				idx = g.drawIndex(i, g.cards[i])
			}
			// Keep the drawn index even when the cell prints NULL: a
			// child level stays inside the subtree of the value its
			// parent actually drew, so hierarchy shape is independent
			// of NULL placement.
			g.st.catIdx[i] = idx
			if isNull {
				g.st.isNull[i] = true
				g.row[i] = sqldb.Null()
			} else {
				g.row[i] = g.name(i, idx)
			}
		case c.Type == "bool":
			pTrue := 0.5
			if c.Dist == DistWeighted && len(c.Weights) > 0 {
				pTrue = c.Weights[0]
			}
			v := g.rng.Float64() < pTrue
			if isNull {
				g.st.isNull[i] = true
				g.row[i] = sqldb.Null()
			} else {
				g.row[i] = sqldb.Bool(v)
			}
		default: // int, float
			v := finishNumeric(c, g.drawNumeric(i))
			g.st.num[i] = v // kept even when NULL, as with catIdx above
			if isNull {
				g.st.isNull[i] = true
				g.row[i] = sqldb.Null()
			} else if c.Type == "int" {
				g.row[i] = sqldb.Int(int64(math.Round(v)))
			} else {
				g.row[i] = sqldb.Float(v)
			}
		}
	}
	return g.row
}

// Generate streams the spec's rows to emit in order. The slice passed
// to emit is reused between calls. Memory stays O(1) in the row count.
func (s SynthSpec) Generate(emit func(vals []sqldb.Value) error) error {
	g, err := NewRowGen(s, 0)
	if err != nil {
		return err
	}
	for r := 0; r < s.Rows; r++ {
		if err := emit(g.Next()); err != nil {
			return err
		}
	}
	return nil
}

// synthBatch is how many rows the streaming builders buffer between
// flushes — a CSV flush or one table Append; generation memory is
// O(synthBatch), never O(rows).
const synthBatch = 4096

// appendBlocks appends the rows gen emits to t in order, synthBatch rows
// per Append, so a reader of t sees whole blocks only. gen may reuse the
// slice it emits; each row is copied into a block buffer the next block
// reuses.
func appendBlocks(t sqldb.Table, gen func(emit func([]sqldb.Value) error) error) error {
	var cells []sqldb.Value
	var block [][]sqldb.Value
	err := gen(func(vals []sqldb.Value) error {
		lo := len(cells)
		cells = append(cells, vals...)
		if block = append(block, cells[lo:len(cells):len(cells)]); len(block) < synthBatch {
			return nil
		}
		err := t.Append(block)
		cells, block = cells[:0], block[:0]
		return err
	})
	if err != nil {
		return err
	}
	return t.Append(block)
}

// BuildSynth generates the spec into a new table inside db.
func BuildSynth(db *sqldb.DB, spec SynthSpec, layout sqldb.Layout) (sqldb.Table, error) {
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	t, err := db.CreateTable(spec.Name, schema, layout)
	if err != nil {
		return nil, err
	}
	if err := appendBlocks(t, spec.Generate); err != nil {
		return nil, err
	}
	return t, nil
}

// StreamSynthCSV writes the spec as CSV (header + rows) without ever
// materializing the table: rows stream from the generator straight into
// the encoder, flushed every synthBatch rows.
func (s SynthSpec) StreamSynthCSV(w io.Writer) error {
	schema, err := s.Schema()
	if err != nil {
		return err
	}
	return streamCSV(w, schema, s.Rows, s.Generate)
}

// WriteSynthSpec encodes a spec as indented JSON, ParseSynthSpec's
// inverse.
func WriteSynthSpec(w io.Writer, spec SynthSpec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// ParseSynthSpec reads a SynthSpec from JSON.
func ParseSynthSpec(r io.Reader) (SynthSpec, error) {
	var spec SynthSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return SynthSpec{}, fmt.Errorf("dataset: parsing synth spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return SynthSpec{}, err
	}
	return spec, nil
}

// TrafficSpec is the built-in load-harness table: a sales-traffic fact
// table with a region→state→city hierarchy, Zipf-skewed device and
// session columns, weighted plan tiers, a revenue~quantity correlation
// and sprinkled NULLs. cmd/seedb-loadgen and the bench load experiment
// default to it; its string columns are the recommend dimensions and
// its float columns the measures.
func TrafficSpec() SynthSpec {
	return SynthSpec{
		Name: "traffic",
		Rows: 100_000,
		Seed: 42,
		Columns: []SynthColumn{
			{Name: "region", Type: "string", Dist: DistWeighted,
				Values:  []string{"na", "emea", "apac", "latam"},
				Weights: []float64{0.4, 0.3, 0.2, 0.1}},
			{Name: "state", Type: "string", Parent: "region", Fanout: 6, Dist: DistZipf, ZipfS: 1.3},
			{Name: "city", Type: "string", Parent: "state", Fanout: 8, Dist: DistUniform, NullRate: 0.01},
			{Name: "device", Type: "string", Dist: DistZipf, Cardinality: 12, ZipfS: 1.4},
			{Name: "plan", Type: "string", Dist: DistWeighted,
				Values:  []string{"free", "pro", "team", "enterprise"},
				Weights: []float64{0.70, 0.20, 0.07, 0.03}},
			{Name: "active", Type: "bool", Dist: DistWeighted, Weights: []float64{0.85}, NullRate: 0.02},
			{Name: "sessions", Type: "int", Dist: DistZipf, Min: 1, Max: 500, ZipfS: 1.25},
			{Name: "quantity", Type: "int", Dist: DistUniform, Min: 1, Max: 50, NullRate: 0.02},
			{Name: "price", Type: "float", Dist: DistNormal, Mean: 25, StdDev: 6, Min: 0.5, Max: 100, Quantum: 0.01},
			{Name: "revenue", Type: "float", Parent: "quantity", Scale: 23.5, StdDev: 30, Min: 0, Max: 2500, Quantum: 0.01},
			{Name: "score", Type: "float", Dist: DistUniform, Min: 0, Max: 1, NullRate: 0.05},
		},
	}
}
