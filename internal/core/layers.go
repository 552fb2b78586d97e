package core

import "polyclip/internal/geom"

// Layer is a set of polygon features (a GIS layer). Features within one
// layer are assumed not to overlap each other (true of administrative
// boundaries, urban areas and the like), so the layer as a whole is a valid
// even-odd region.
type Layer []geom.Polygon

// NumVertices returns the total vertex count of the layer.
func (l Layer) NumVertices() int {
	n := 0
	for _, f := range l {
		n += f.NumVertices()
	}
	return n
}

// BBox returns the layer's bounding box (the paper's MBR of the union).
func (l Layer) BBox() geom.BBox {
	box := geom.EmptyBBox()
	for _, f := range l {
		box = box.Union(f.BBox())
	}
	return box
}
