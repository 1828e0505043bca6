package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"seedb/internal/sqldb"
)

// streamCSV writes a header plus generated rows as CSV, flushing every
// synthBatch rows so memory stays bounded regardless of the row count.
// generate must call emit once per row; the emitted slice may be reused.
func streamCSV(w io.Writer, schema *sqldb.Schema, rows int, generate func(emit func(vals []sqldb.Value) error) error) error {
	cw := csv.NewWriter(w)
	header := make([]string, schema.NumColumns())
	for i := range header {
		header[i] = schema.Column(i).Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	record := make([]string, len(header))
	emitted := 0
	err := generate(func(vals []sqldb.Value) error {
		for i, v := range vals {
			if v.IsNull() {
				record[i] = ""
			} else {
				record[i] = v.String()
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
		emitted++
		if emitted%synthBatch == 0 {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// StreamCSV writes a paper-catalog spec as CSV without materializing a
// table: rows flow from the spec's generator straight into the encoder.
func StreamCSV(w io.Writer, spec Spec, rows int) error {
	if rows > 0 {
		spec.Rows = rows
	}
	return streamCSV(w, spec.Schema(), spec.Rows, spec.Generate)
}

// LoadCSV reads CSV data (with a header row naming columns) into a new
// table. Column types are taken from the provided schema; the CSV header
// must list exactly the schema's columns, in order. Empty fields load as
// NULL.
func LoadCSV(db *sqldb.DB, name string, schema *sqldb.Schema, layout sqldb.Layout, r io.Reader) (sqldb.Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if len(header) != schema.NumColumns() {
		return nil, fmt.Errorf("dataset: CSV has %d columns, schema has %d", len(header), schema.NumColumns())
	}
	for i, h := range header {
		if h != schema.Column(i).Name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, schema says %q", i, h, schema.Column(i).Name)
		}
	}
	t, err := db.CreateTable(name, schema, layout)
	if err != nil {
		return nil, err
	}
	err = appendBlocks(t, func(emit func([]sqldb.Value) error) error {
		vals := make([]sqldb.Value, schema.NumColumns())
		for line := 2; ; line++ {
			record, err := cr.Read()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
			}
			for i, field := range record {
				v, err := ParseField(field, schema.Column(i).Type)
				if err != nil {
					return fmt.Errorf("dataset: CSV line %d column %s: %w", line, schema.Column(i).Name, err)
				}
				vals[i] = v
			}
			if err := emit(vals); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ParseField converts one textual field to a Value of the given type;
// the empty string parses as NULL. It is the shared cell decoder for
// CSV loading and the server's /api/ingest row format.
func ParseField(s string, typ sqldb.ColumnType) (sqldb.Value, error) {
	if s == "" {
		return sqldb.Null(), nil
	}
	switch typ {
	case sqldb.TypeInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return sqldb.Null(), fmt.Errorf("bad int %q", s)
		}
		return sqldb.Int(i), nil
	case sqldb.TypeFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return sqldb.Null(), fmt.Errorf("bad float %q", s)
		}
		return sqldb.Float(f), nil
	case sqldb.TypeBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return sqldb.Null(), fmt.Errorf("bad bool %q", s)
		}
		return sqldb.Bool(b), nil
	default:
		return sqldb.Str(s), nil
	}
}
