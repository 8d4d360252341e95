package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/sim"
)

// referenceFile holds, for every spec of the cold workloads, the digest
// of the Result engine.Execute produced at the commit that introduced
// the benchmark. The simulator is deterministic, so a speed-only change
// must leave every digest unchanged; a change that alters simulated
// behaviour on purpose regenerates the file with -write-reference.
const referenceFile = "reference.json"

// digest is a Result's fingerprint. encoding/json writes float64s in
// their shortest round-trip form, so equal digests mean bit-identical
// Results.
func digest(r sim.Result) string {
	blob, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Result holds only numbers and strings
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

func loadReference(root string) (map[string]string, error) {
	blob, err := os.ReadFile(filepath.Join(root, "perfbench", referenceFile))
	if err != nil {
		return nil, err
	}
	var ref map[string]string
	if err := json.Unmarshal(blob, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	return ref, nil
}

// writeReference executes every cold-workload spec on the scalar path
// and writes the key → digest map.
func writeReference(path string) error {
	ref := map[string]string{}
	for _, s := range append(table3ColdSpecs(), pdnColdSpecs()...) {
		k, err := s.Key()
		if err != nil {
			return err
		}
		res, err := engine.Execute(s)
		if err != nil {
			return fmt.Errorf("%s: %w", label(s), err)
		}
		ref[k.Hex()] = digest(res)
	}
	blob, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
