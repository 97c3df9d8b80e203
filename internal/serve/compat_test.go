package serve

import (
	"strings"
	"testing"
)

// legacyHashes are the canonical config hashes of the six named
// scenarios' default submissions, captured on the pre-schema registry.
// Every registry redesign since must keep each one byte-identical: these
// keys are the identities of cached artifacts, and a silent shift would
// orphan every previously cached result (and break the "two spellings,
// one key" contract clients rely on).
var legacyHashes = map[string]string{
	"micro":   "f53d6bf104c6f468e28142bc57025ebed4671182a3085d7f2c7f8b984864d87d",
	"amo":     "b853d0f4424633f39b89165aedd47bf85dd4d0da0e6bce14801ea7da34b58206",
	"fig9":    "f2d7f4f6c0b5aad56d9773ea5377e64294415734cc11496fc087a20689b1396c",
	"chaos":   "5181c18b8b89a5201cba999a040357a218aa451dd0849dd83c516d5a654305f5",
	"scf":     "a7bcdc45bba2bfffd1bb3b59b095a1fd8e2a34cd6c530d281d8f4804452dd91f",
	"tableii": "1430a3cf6e13cdab9dc70068ca7d0c95131b2cc91ed7fc764e1eea7abb385101",
}

func TestLegacyHashPins(t *testing.T) {
	for name, want := range legacyHashes {
		j, err := parseJob(strings.NewReader(`{"scenario":"`+name+`"}`), new(JobConfig))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if j.key != want {
			t.Errorf("%s: hash moved: got %s want %s", name, j.key, want)
		}
	}
}

// TestLegacyHashSpelledOut pins the other half of the contract: a
// submission with the defaults spelled out collides onto the same key as
// the bare scenario name.
func TestLegacyHashSpelledOut(t *testing.T) {
	body := `{"scenario":"fig9","format":"csv","params":{"procs":[2,16,64],"ops_each":8}}`
	j, err := parseJob(strings.NewReader(body), new(JobConfig))
	if err != nil {
		t.Fatal(err)
	}
	if j.key != legacyHashes["fig9"] {
		t.Errorf("spelled-out fig9 hash = %s, want %s", j.key, legacyHashes["fig9"])
	}
}
