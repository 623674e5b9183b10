// Negative cases for nogob: hand-written binary encoding is what the check
// steers toward.
package nogob

import "encoding/binary"

func appendLen(b []byte, n int) []byte {
	return binary.AppendUvarint(b, uint64(n))
}
