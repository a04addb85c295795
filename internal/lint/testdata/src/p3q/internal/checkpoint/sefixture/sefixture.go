// Package sefixture exercises the stickyerr analyzer inside a codec-scope
// package path: a kept error is legal, a discarded one is not.
package sefixture

import (
	"bufio"
	"io"
	"os"
)

type sticky struct {
	bw  *bufio.Writer
	err error
}

func (w *sticky) put(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(b) // kept in a field: legal
}

type loose struct{ bw *bufio.Writer }

func (l *loose) put(b []byte) error {
	_, err := l.bw.Write(b) // kept and returned: legal
	return err
}

func drop(f *os.File, r io.Reader, buf []byte) {
	f.Close()                  // want "discards its error result"
	defer f.Close()            // want "deferred call discards its error result"
	_ = f.Close()              // want "assigned to blank"
	_, _ = io.ReadFull(r, buf) // want "assigned to blank"
	n, _ := f.Write(buf)       // want "assigned to blank"
	_ = n
}
