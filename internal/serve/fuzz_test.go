package serve

import (
	"bytes"
	"path/filepath"
	"testing"
)

// FuzzJobCanonIdempotent holds the job constructor to what the proxy hop
// relies on. A replica that does not own a key re-submits exactly j.body
// to the owner, which builds its job from those bytes: for any body
// either envelope accepts, parsing the canonical body again must give the
// same key and the same bytes, or the owner would run, cache and answer
// for a different job than the one the client sent. A body that is
// rejected must be rejected with an error, not a panic.
func FuzzJobCanonIdempotent(f *testing.F) {
	for _, row := range loadWireFreeze(f).Rows {
		f.Add([]byte(row.Body))
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("examples/*.json: %v (found %d)", err, len(examples))
	}
	for _, path := range examples {
		f.Add([]byte(exampleCompose(f, filepath.Base(path))))
	}
	f.Add([]byte(fastCompose))

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, fresh := range []func() envelope{
			func() envelope { return new(JobConfig) },
			func() envelope { return new(ComposeConfig) },
		} {
			j, err := parseJob(bytes.NewReader(body), fresh())
			if err != nil {
				continue
			}
			again, err := parseJob(bytes.NewReader(j.body), fresh())
			if err != nil {
				t.Fatalf("%q is accepted, its canonical form %q is not: %v", body, j.body, err)
			}
			if again.key != j.key || !bytes.Equal(again.body, j.body) {
				t.Fatalf("%q: canonical form moves when parsed again:\n%s %s\n%s %s",
					body, j.key, j.body, again.key, again.body)
			}
		}
	})
}
