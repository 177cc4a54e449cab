package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies where and what a run measured. Runs are
// comparable only on the same machine: NProc, GOMAXPROCS, CPUModel and
// GoVersion must match. Commit and Source identify the code measured.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"` // git HEAD, or "none" for a checkout without .git
	Source     string `json:"source"` // sha256 over the module's .go files and go.mod
}

// machine fingerprints this process, measured from the checkout root.
func machine() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

// sameMachine reports which machine fields of a and b differ.
func sameMachine(a, b fingerprint) []string {
	var diff []string
	if a.NProc != b.NProc {
		diff = append(diff, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diff = append(diff, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.CPUModel != b.CPUModel {
		diff = append(diff, fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.GoVersion != b.GoVersion {
		diff = append(diff, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return diff
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the checkout's git HEAD; a checkout without its own .git
// (an exported tree) reports "none" rather than an enclosing repository's.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// hidden directories), so runs of a checkout without git history still
// name the code they measured.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compareMain compares two run records. It refuses records from different
// machines (exit 2). For two runs of the same code, workload, size and
// seed, the per-op digest and the deterministic means must agree exactly
// (exit 1 otherwise).
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var recs [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	a, b := &recs[0], &recs[1]
	if diff := sameMachine(a.Fingerprint, b.Fingerprint); len(diff) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: machine fingerprints differ: %s\n", strings.Join(diff, "; "))
		return 2
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: workloads %s and %s differ\n", a.Workload, b.Workload)
		return 2
	}
	fmt.Fprintf(stdout, "%s: A seed %d source %.12s, B seed %d source %.12s\n",
		a.Workload, a.Seed, a.Fingerprint.Source, b.Seed, b.Fingerprint.Source)
	printDeltas(stdout, a.EndToEnd, b.EndToEnd)
	printDeltas(stdout, a.PerLayer, b.PerLayer)
	if a.Seed != b.Seed || a.Size != b.Size || a.Fingerprint.Source != b.Fingerprint.Source {
		return 0
	}
	ok := a.Digest == b.Digest
	for _, k := range []string{"certified_ratio_mean", "rounds_mean"} {
		ok = ok && math.Float64bits(a.EndToEnd[k]) == math.Float64bits(b.EndToEnd[k])
	}
	if !ok {
		fmt.Fprintln(stdout, "same code and seed, but the outputs differ: digest or deterministic means disagree")
		return 1
	}
	fmt.Fprintln(stdout, "same code and seed: digest and deterministic means agree exactly")
	return 0
}

func printDeltas(w io.Writer, a, b map[string]float64) {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bv, ok := b[k]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %14.6g %+8.2f%%\n", k, a[k], bv, 100*(bv/a[k]-1))
	}
}
