// Package sefixture exercises the stickyerr analyzer inside a codec-scope
// package path that is not the carrier's (see binio/carrierfixture).
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
	_, w.err = w.bw.Write(b) // want "raw stream I/O outside internal/binio"
}

type loose struct{ bw *bufio.Writer }

func (l *loose) put(b []byte) error {
	_, err := l.bw.Write(b) // want "raw stream I/O outside internal/binio"
	return err
}

func drop(f *os.File, r io.Reader, buf []byte) {
	f.Close()                  // want "discards its error result"
	defer f.Close()            // want "deferred call discards its error result"
	_ = f.Close()              // want "assigned to blank"
	_, _ = io.ReadFull(r, buf) // want "assigned to blank" "raw stream I/O"
	n, _ := f.Write(buf)       // want "assigned to blank" "raw stream I/O"
	_ = n
}
