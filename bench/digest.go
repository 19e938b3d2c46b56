package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"silo/internal/harness"
	"silo/internal/stats"
)

// The behaviour lock: every simulated sample is reduced to its fields
// (every counter of stats.Run plus the exact count, sum and max of the
// commit-stall and transaction-latency histograms) and a digest of them.
// Bucket contents are left out on purpose, so a change of histogram
// bucketing alone does not break the lock; the exact sums still pin every
// observation's total.

//go:embed testdata/digests.json
var referenceJSON []byte

// digestFile is where -update writes the reference digests, relative to
// the bench directory or the repository root, whichever the process runs
// from.
var digestFile = []string{"testdata/digests.json", "bench/testdata/digests.json"}

// defaultSeed is the seed the reference digests were taken at.
const defaultSeed = 1

type fields map[string]int64

type refEntry struct {
	Digest string `json:"digest"`
	Fields fields `json:"fields"`
}

func sampleFields(r stats.Run, commit, tx *stats.Histogram) fields {
	f := fields{"Cores": int64(r.Cores)}
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Int64 {
			f[v.Type().Field(i).Name] = v.Field(i).Int()
		}
	}
	for name, h := range map[string]*stats.Histogram{"commit_hist": commit, "tx_hist": tx} {
		f[name+".count"] = h.Count()
		// The histogram exposes its sum only as the mean; sums this small
		// (far below 2^53) round-trip exactly.
		f[name+".sum"] = int64(h.Mean()*float64(h.Count()) + 0.5)
		f[name+".max"] = h.Max()
	}
	return f
}

func (f fields) digest() string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, f[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// diff lists the fields that differ, as "name got=x want=y".
func (f fields) diff(want fields) []string {
	var out []string
	for k, w := range want {
		if g, ok := f[k]; !ok || g != w {
			out = append(out, fmt.Sprintf("%s got=%d want=%d", k, f[k], w))
		}
	}
	for k, g := range f {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s got=%d want=absent", k, g))
		}
	}
	sort.Strings(out)
	return out
}

// specKey names a simulated sample by everything that determines its
// result. Audit and telemetry are left out: they must not change it, so a
// tpcc-live sample shares its key with the Silo sample of tpcc-designs.
func specKey(s harness.Spec) string {
	return fmt.Sprintf("%s/%s/c%d/t%d/s%d", s.Workload, s.Design, s.Cores, s.Txns, s.Seed)
}

// lock checks samples against the reference digests and against earlier
// samples of the same spec in this process.
type lock struct {
	refs map[string]refEntry
	seen map[string]fields

	againstRef, repeats int // samples checked against a reference / an earlier sample
}

func newLock() (*lock, error) {
	l := &lock{seen: make(map[string]fields)}
	if err := json.Unmarshal(referenceJSON, &l.refs); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return l, nil
}

// check returns the problems with one sample; none means it passes.
func (l *lock) check(key string, f fields) []string {
	var bad []string
	if ref, ok := l.refs[key]; ok {
		l.againstRef++
		if d := f.diff(ref.Fields); len(d) > 0 {
			bad = append(bad, fmt.Sprintf("%s differs from the reference digest %s: %s", key, ref.Digest, strings.Join(d, ", ")))
		}
	}
	if prev, ok := l.seen[key]; ok {
		l.repeats++
		if d := f.diff(prev); len(d) > 0 {
			bad = append(bad, fmt.Sprintf("%s differs from an earlier run of the same spec in this process: %s", key, strings.Join(d, ", ")))
		}
	} else {
		l.seen[key] = f
	}
	return bad
}

// writeReferences runs every simulated spec of every workload once at the
// default seed, at both scales, and writes the digests file.
func writeReferences() error {
	refs := make(map[string]refEntry)
	for _, sc := range []scale{fullScale, tinyScale} {
		for _, w := range workloads {
			if w.specs == nil {
				continue
			}
			for k := 0; k < sc.inputs; k++ {
				for _, spec := range w.specs(defaultSeed, sc, k) {
					s, err := runPlain(spec, nil, 0)
					if err != nil {
						return err
					}
					refs[specKey(spec)] = refEntry{Digest: s.fields.digest(), Fields: s.fields}
				}
			}
		}
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	for _, path := range digestFile {
		if _, err := os.Stat(filepath.Dir(path)); err == nil {
			return os.WriteFile(path, append(b, '\n'), 0o644)
		}
	}
	return fmt.Errorf("no testdata directory here; run -update from the bench directory or the repository root")
}
