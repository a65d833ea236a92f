package bytecode

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// committedListings reads every committed examples/*/listing.bh, keyed
// by its example directory.
func committedListings(tb testing.TB) map[string]string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "listing.bh"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(paths) == 0 {
		tb.Fatal("no examples/*/listing.bh found")
	}
	out := make(map[string]string, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(filepath.Dir(path))] = string(data)
	}
	return out
}

// sortedKeys returns m's keys in order, for deterministic subtests.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// seedListings feeds every committed examples/*/listing.bh into the fuzz
// corpus: the real wire format is the best starting point for mutation,
// and the glob doubles as a check that the corpus stays in sync with the
// examples tree.
func seedListings(f *F) {
	listings := committedListings(f)
	for _, name := range sortedKeys(listings) {
		f.Add(listings[name])
	}
}

// F aliases *testing.F so seedListings reads naturally at call sites.
type F = testing.F

// FuzzParse is the wire-parser robustness contract of the bhd daemon:
// Parse must return an error — never panic — on arbitrary input, because
// every byte of a batch body reaches it from the network. On accepted
// input the rest of the submit path must be panic-free too: Validate may
// reject the program but not crash, and a program that validates must
// fingerprint, clone, and dump without panicking.
func FuzzParse(f *testing.F) {
	seedListings(f)
	f.Add(".reg a0 float64 10\nBH_ADD a0 a0 1\nBH_SYNC a0\n")
	f.Add("BH_IDENTITY a0 [0:10:1] 0\nBH_ADD_REDUCE a1 a0 [0:10:1] axis=0\n")
	f.Add("BH_ADD a0 [0:4:1][0:4:0] a0 [4:0:-1] 1e308\n")
	f.Add(".in a0\n.out a0\n.reg a0 bool 1\nBH_SYNC a0\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, names, err := ParseNames(src)
		if err != nil {
			if prog != nil || names != nil {
				t.Fatalf("ParseNames returned non-nil program with error %v", err)
			}
			return
		}
		for name, id := range names {
			if _, ok := prog.Reg(id); !ok {
				t.Fatalf("name %q maps to unknown register %v", name, id)
			}
		}
		if err := prog.Validate(); err != nil {
			return
		}
		_ = prog.Fingerprint()
		_ = prog.Constants()
		if _, err := Parse(prog.Clone().Dump()); err != nil {
			t.Fatalf("validated program does not re-parse: %v\n%s", err, prog.Dump())
		}
	})
}

// FuzzParseView narrows the fuzzer onto the "[start:stop:step]" grammar,
// where the arithmetic (spans, strides, broadcast dims) lives.
func FuzzParseView(f *testing.F) {
	f.Add("[0:10:1]")
	f.Add("[0:16:4][0:4:1]")
	f.Add("[5:5:0]")
	f.Add("[10:0:-1]")
	f.Add("[-9223372036854775808:9223372036854775807:1]")
	f.Fuzz(func(t *testing.T, spec string) {
		v, err := parseView(spec, new(intSlab))
		if err != nil {
			return
		}
		// A view the parser accepts must survive the same geometry
		// queries validation and execution will run on it.
		_, _, _ = v.MinMaxIndex()
		_ = v.Size()
	})
}
