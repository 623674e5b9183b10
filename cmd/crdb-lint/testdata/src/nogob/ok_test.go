// Test files may import encoding/gob, e.g. to compare against a reference
// encoding.
package nogob

import (
	"bytes"
	"encoding/gob"
)

func gobReference(v any) []byte {
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}
