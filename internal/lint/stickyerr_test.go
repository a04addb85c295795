package lint

import (
	"testing"

	"p3q/internal/lint/analysistest"
)

func TestStickyErr(t *testing.T) {
	analysistest.Run(t, "testdata", StickyErr,
		"p3q/internal/checkpoint/sefixture",
		"p3q/internal/binio/carrierfixture",
		"example.com/outside")
}
