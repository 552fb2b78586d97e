// Package geojson reads and writes polygons in GeoJSON (RFC 7946) — the
// other interchange format, besides WKT, that GIS toolchains exchanging
// overlay results expect. Supported geometries: Polygon, MultiPolygon, and
// Feature/FeatureCollection wrappers for whole layers.
//
// Every reader — DecodeFeatures, UnmarshalLayer and Unmarshal — runs on one
// single-pass reader (read.go). It scans each byte once out of one fixed
// buffer, checks JSON syntax as it goes, dispatches on member names, checks
// only the syntax of every member it does not read, and parses each
// position with strconv.ParseFloat straight into ring storage. It decodes
// the same polygons, bit for bit, as the encoding/json reader it replaced,
// and accepts and rejects the same documents except in three ways:
//
//   - properties are checked for JSON syntax only, so a value that is not
//     an object, or an out-of-range number inside one, is no longer an
//     error;
//   - member names match case-insensitively in every object, and the first
//     object of a stream is read by the same rules as every later one. The
//     old reader matched the first object's names exactly, range-checked
//     the numbers in its members it skipped, and read the members of an
//     object or array given as its type as if they were its own;
//   - when one object repeats a member name, its last occurrence wins
//     whole. The old reader merged a repeated geometry object into the
//     earlier one. A repeated features member still streams both arrays.
//
// The write path (Marshal, MarshalPolygon, MarshalLayer) uses encoding/json.
package geojson

import (
	"encoding/json"
	"fmt"

	"polyclip/internal/geom"
)

// ParseError reports a GeoJSON parse failure with position context: the
// byte offset into the document when it is known (-1 otherwise) and the
// offending JSON value or field when attributable. Callers serving parse
// errors to clients — the clipd 400 bodies — retrieve it with errors.As to
// echo the position back.
type ParseError struct {
	Offset int64  // byte offset into the document, -1 when unknown
	Token  string // offending JSON value/field, "" when unknown
	Msg    string // what the reader rejected
}

// Error formats the failure with whatever position context is known.
func (e *ParseError) Error() string {
	s := "geojson: " + e.Msg
	if e.Offset >= 0 {
		s += fmt.Sprintf(" at byte %d", e.Offset)
	}
	if e.Token != "" {
		s += fmt.Sprintf(" near %q", e.Token)
	}
	return s
}

// geometry is the wire form of a GeoJSON geometry object.
type geometry struct {
	Type        string          `json:"type"`
	Coordinates json.RawMessage `json:"coordinates"`
}

type feature struct {
	Type     string          `json:"type"`
	Geometry json.RawMessage `json:"geometry"`
}

type featureCollection struct {
	Type     string    `json:"type"`
	Features []feature `json:"features"`
}

// Marshal renders a polygon as a GeoJSON geometry: Polygon when it has one
// ring, MultiPolygon otherwise (each ring as its own polygon — the even-odd
// model does not track hole nesting). A non-finite coordinate is an error
// naming its ring and vertex.
func Marshal(p geom.Polygon) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("geojson: %w", err)
	}
	return marshal(p)
}

func marshal(p geom.Polygon) ([]byte, error) {
	if len(p) == 1 {
		return marshalGeometry("Polygon", ringsToCoords(p))
	}
	multi := make([][][][2]float64, len(p))
	for i, r := range p {
		multi[i] = ringsToCoords(geom.Polygon{r})
	}
	return marshalGeometry("MultiPolygon", multi)
}

// MarshalPolygon renders all rings as one GeoJSON Polygon (first ring
// shell, rest holes) for consumers that understand ring nesting. A
// non-finite coordinate is an error naming its ring and vertex.
func MarshalPolygon(p geom.Polygon) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("geojson: %w", err)
	}
	return marshalGeometry("Polygon", ringsToCoords(p))
}

// MarshalLayer renders a feature layer as a FeatureCollection. A
// non-finite coordinate is an error naming its feature, ring and vertex.
func MarshalLayer(layer []geom.Polygon) ([]byte, error) {
	fc := featureCollection{Type: "FeatureCollection"}
	for i, f := range layer {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("geojson: feature %d: %w", i, err)
		}
		raw, err := marshal(f)
		if err != nil {
			return nil, err
		}
		fc.Features = append(fc.Features, feature{Type: "Feature", Geometry: raw})
	}
	return json.Marshal(fc)
}

func marshalGeometry(typ string, coords any) ([]byte, error) {
	raw, err := json.Marshal(coords)
	if err != nil {
		return nil, err
	}
	return json.Marshal(geometry{Type: typ, Coordinates: raw})
}

// ringsToCoords converts rings to GeoJSON linear rings (closed: first
// position repeated at the end, per RFC 7946).
func ringsToCoords(p geom.Polygon) [][][2]float64 {
	out := make([][][2]float64, len(p))
	for i, r := range p {
		ring := make([][2]float64, 0, len(r)+1)
		for _, pt := range r {
			ring = append(ring, [2]float64{pt.X, pt.Y})
		}
		if len(r) > 0 {
			ring = append(ring, [2]float64{r[0].X, r[0].Y})
		}
		out[i] = ring
	}
	return out
}
