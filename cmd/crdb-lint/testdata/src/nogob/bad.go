// Positive cases for the nogob check: any non-test import of encoding/gob
// is flagged, under its own name, an alias, or a blank import.
package nogob

import (
	"bytes"
	"encoding/gob" // want nogob

	_ "encoding/gob" // want nogob
	g "encoding/gob" // want nogob
)

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	_ = g.NewDecoder
	return buf.Bytes(), nil
}
