// Command onionctl builds, inspects and queries Onion index files.
//
//	onionctl build  -csv data.csv -index data.onion
//	onionctl stats  -index data.onion
//	onionctl query  -index data.onion -weights 0.4,0.3,0.3 -n 10
//	onionctl query  -index data.onion -weights 1,0,-1 -n 5 -min
//	onionctl insert -csv more.csv -index data.onion
//	onionctl delete -index data.onion -id 42
//	onionctl hbuild -csv labeled.csv -dir hier/
//	onionctl hquery -dir hier/ -weights 0.5,0.5 -n 10 [-where east] [-exhaustive]
//
// CSV rows are id,x1,…,xd with an optional trailing label column (used
// by the hierarchical commands as the cluster attribute). Queries run
// directly against the paged file (one seek per accessed layer);
// maintenance loads the file, applies the change — a single delete
// through the paper's cascade, an inserted batch through one re-peel —
// and rewrites it atomically.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cliutil"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		csvPath    = fs.String("csv", "", "input CSV file (id,x1,...,xd[,label])")
		indexPath  = fs.String("index", "", "index file path")
		dirPath    = fs.String("dir", "", "hierarchy directory (hbuild/hquery)")
		weightsCS  = fs.String("weights", "", "comma-separated query weights")
		n          = fs.Int("n", 10, "number of results")
		min        = fs.Bool("min", false, "minimize instead of maximize")
		id         = fs.Uint64("id", 0, "record ID (delete)")
		stream     = fs.Bool("stream", false, "print results progressively as they are found")
		where      = fs.String("where", "", "restrict hquery to one cluster label")
		exhaustive = fs.Bool("exhaustive", false, "hquery: search all children instead of parent pruning")
	)
	fs.Parse(os.Args[2:])

	switch cmd {
	case "build":
		recs := mustReadCSV(*csvPath)
		ix, err := onion.Build(recs, onion.Options{})
		check(err)
		check(ix.Save(mustIndex(*indexPath)))
		fmt.Printf("built %s: %d records, %d attributes, %d layers\n",
			*indexPath, ix.Len(), ix.Dim(), ix.NumLayers())

	case "stats":
		di, err := onion.OpenDisk(mustIndex(*indexPath))
		check(err)
		defer di.Close()
		fmt.Printf("records: %d\nattributes: %d\nlayers: %d\n", di.Len(), di.Dim(), di.NumLayers())

	case "query":
		di, err := onion.OpenDisk(mustIndex(*indexPath))
		check(err)
		defer di.Close()
		w := mustWeights(*weightsCS, di.Dim(), *min)
		if *stream {
			st, err := di.Search(w, *n)
			check(err)
			rank := 1
			for {
				r, ok := st.Next()
				if !ok {
					break
				}
				printResult(rank, r, *min)
				rank++
			}
			check(st.Err())
			stats := st.Stats()
			fmt.Printf("# evaluated %d records in %d layers\n", stats.RecordsEvaluated, stats.LayersAccessed)
			return
		}
		res, stats, ioStats, err := di.TopN(w, *n)
		check(err)
		for i, r := range res {
			printResult(i+1, r, *min)
		}
		fmt.Printf("# evaluated %d records in %d layers; I/O: %d seeks + %d pages (cost %.0f)\n",
			stats.RecordsEvaluated, stats.LayersAccessed,
			ioStats.RandomAccesses, ioStats.SequentialReads, ioStats.Cost(8))

	case "insert":
		ix, err := onion.Load(mustIndex(*indexPath))
		check(err)
		recs := mustReadCSV(*csvPath)
		check(ix.InsertBatch(recs))
		check(ix.Save(*indexPath))
		fmt.Printf("inserted %d records; index now %d records in %d layers\n", len(recs), ix.Len(), ix.NumLayers())

	case "delete":
		ix, err := onion.Load(mustIndex(*indexPath))
		check(err)
		check(ix.Delete(*id))
		check(ix.Save(*indexPath))
		fmt.Printf("deleted %d; index now %d records in %d layers\n", *id, ix.Len(), ix.NumLayers())

	case "hbuild":
		if *dirPath == "" {
			fatal(fmt.Errorf("hbuild: -dir is required"))
		}
		f, err := os.Open(*csvPath)
		check(err)
		recs, labels, err := cliutil.ReadRecords(f, *csvPath)
		f.Close()
		check(err)
		groups := cliutil.GroupByLabel(recs, labels, "unlabeled")
		h, err := onion.BuildHierarchy(groups, onion.Options{})
		check(err)
		check(h.Save(*dirPath))
		fmt.Printf("built hierarchy %s: %d records in %d clusters %v\n",
			*dirPath, h.Len(), len(h.Labels()), h.Labels())

	case "hquery":
		if *dirPath == "" {
			fatal(fmt.Errorf("hquery: -dir is required"))
		}
		h, err := onion.LoadHierarchy(*dirPath)
		check(err)
		w := mustWeights(*weightsCS, h.Dim(), *min)
		var res []onion.Result
		var stats onion.HierarchyStats
		switch {
		case *where != "":
			res, stats, err = h.TopNWhere(w, *n, func(l string) bool { return l == *where })
		case *exhaustive:
			res, stats, err = h.TopNExhaustive(w, *n)
		default:
			res, stats, err = h.TopN(w, *n)
		}
		check(err)
		for i, r := range res {
			printResult(i+1, r, *min)
		}
		fmt.Printf("# searched %d cluster(s); evaluated %d records (%d in the parent onion)\n",
			stats.ChildrenQueried, stats.Total().RecordsEvaluated, stats.Parent.RecordsEvaluated)

	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: onionctl build|stats|query|insert|delete|hbuild|hquery [flags]")
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "onionctl:", err)
	os.Exit(1)
}

func mustIndex(path string) string {
	if path == "" {
		fatal(fmt.Errorf("-index is required"))
	}
	return path
}

func mustReadCSV(path string) []onion.Record {
	if path == "" {
		fatal(fmt.Errorf("-csv is required"))
	}
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	recs, _, err := cliutil.ReadRecords(f, path)
	check(err)
	return recs
}

func mustWeights(s string, dim int, min bool) []float64 {
	w, err := cliutil.ParseWeights(s, dim)
	check(err)
	if min {
		for i := range w {
			w[i] = -w[i]
		}
	}
	return w
}

func printResult(rank int, r onion.Result, min bool) {
	score := r.Score
	if min {
		score = -score
	}
	fmt.Printf("%4d. id=%-10d score=%.6g layer=%d\n", rank, r.ID, score, r.Layer+1)
}
