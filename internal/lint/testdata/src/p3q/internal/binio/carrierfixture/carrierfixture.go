// Package carrierfixture exercises the stickyerr analyzer under the
// carrier's package path: raw stream I/O is legal here and only here,
// dropped errors are not.
package carrierfixture

import (
	"bufio"
	"io"
)

type carrier struct {
	bw  *bufio.Writer
	err error
}

func (w *carrier) put(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(b) // the carrier package: raw I/O allowed
}

func fill(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf) // allowed outside a method too: the rule is per package
	return err
}

func drop(bw *bufio.Writer) {
	bw.Flush()     // want "discards its error result"
	_ = bw.Flush() // want "assigned to blank"
}
