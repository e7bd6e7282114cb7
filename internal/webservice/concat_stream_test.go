package webservice

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/tableops"
	"repro/internal/votable"
)

// resultCells renders one result as its output-table row (the allocating
// form of resultCellsInto).
func resultCells(r GalMorphResult) []string {
	row := make([]string, len(ResultFields))
	resultCellsInto(row, r)
	return row
}

// resultsToVOTable is the in-memory concat oracle: the whole output table,
// sorted by galaxy ID, built as one votable.Table. The streamed concat path
// must write exactly what WriteTable writes for it.
func resultsToVOTable(cluster string, results []GalMorphResult) *votable.Table {
	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	meta := resultsMeta(cluster, len(results))
	t := votable.NewTable(meta.Name, meta.Fields...)
	t.Description = meta.Description
	for _, p := range meta.Params {
		t.SetParam(p)
	}
	for _, r := range results {
		_ = t.AppendRow(resultCells(r)...)
	}
	return t
}

// TestStreamedConcatByteIdentical pins the spill-to-disk concat path
// against the in-memory resultsToVOTable+WriteTable path, with enough rows
// to force multiple run-file spills.
func TestStreamedConcatByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var results []GalMorphResult
	for i := 0; i < 300; i++ {
		r := GalMorphResult{
			ID:                fmt.Sprintf("COMA-%03d-%03d", rng.Intn(1000), i),
			SurfaceBrightness: rng.Float64() * 25,
			Concentration:     rng.Float64() * 5,
			Asymmetry:         rng.Float64(),
			Valid:             rng.Intn(4) != 0,
		}
		if !r.Valid {
			r.Reason = "injected"
		}
		results = append(results, r)
	}

	var want bytes.Buffer
	tab := resultsToVOTable("COMA", append([]GalMorphResult(nil), results...))
	if err := votable.WriteTable(&want, tab); err != nil {
		t.Fatal(err)
	}

	sp := tableops.NewSpool(0, 16) // tiny batches: ~19 spilled runs
	defer sp.Close()
	for _, r := range results {
		if err := sp.Add(resultCells(r)...); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := streamResultsTable(&got, "COMA", sp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("streamed concat output diverges from the in-memory path")
	}
}
