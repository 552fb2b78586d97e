package overlay

import (
	"polyclip/internal/geom"
	"polyclip/internal/ringstitch"
)

// stitch links the directed contributing edges into closed output rings via
// the shared interior-on-the-left ring stitcher.
func stitch(dirs []dirEdge) geom.Polygon {
	if len(dirs) == 0 {
		return nil
	}
	es := make([]ringstitch.Edge, len(dirs))
	for i, d := range dirs {
		es[i] = ringstitch.Edge{From: d.from, To: d.to}
	}
	return ringstitch.Stitch(es)
}
