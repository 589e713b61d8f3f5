package serve

import (
	"encoding/json"

	"bside"
)

// ResultBody is the canonical analysis rendering under the service's
// name; the benchmark harness under bench/ decodes bodies into it.
type ResultBody = bside.Record

// Render serializes one analysis into the canonical newline-terminated
// JSON body served by POST /analyze. Struct marshaling cannot fail.
func Render(res *bside.Analysis) []byte {
	b, _ := json.Marshal(res.Record())
	return append(b, '\n')
}
