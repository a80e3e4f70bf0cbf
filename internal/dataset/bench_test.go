package dataset_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// BenchmarkReadCSVFile is the layer benchmark for the dataset.read_csv
// span on the pipeline-full input: a 100k-row folktables CSV with the
// numeric income column, loaded from disk. SetBytes makes the reported
// MB/s the loader's throughput over the file.
func BenchmarkReadCSVFile(b *testing.B) {
	d := datagen.Folktables(datagen.Config{N: 100_000, Seed: 1})
	bld := dataset.NewBuilder()
	for _, f := range d.Table.Fields() {
		if f.Kind == dataset.Continuous {
			bld.AddFloat(f.Name, d.Table.Floats(f.Name))
		} else {
			bld.AddCategoricalCodes(f.Name, d.Table.Codes(f.Name), d.Table.Levels(f.Name))
		}
	}
	bld.AddFloat("income", d.Target)
	tab, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "folktables.csv")
	if err := tab.WriteCSVFile(path); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReadCSVFile(path, dataset.CSVOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
