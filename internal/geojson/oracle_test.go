package geojson

// The test oracle: the encoding/json reader this package used before its
// single-pass reader, kept verbatim apart from renamed identifiers and the
// edits marked "NEW RULE", which state where the single pass reads a
// document differently on purpose. FuzzDecodeFeatures holds the package's
// reader to it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"polyclip/internal/geom"
)

// oracleWrapJSON converts an encoding/json decode error into a *ParseError,
// pulling the byte offset out of the decoder's typed errors.
func oracleWrapJSON(err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return &ParseError{Offset: syn.Offset, Msg: syn.Error()}
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		tok := typ.Field
		if tok == "" {
			tok = typ.Value
		}
		return &ParseError{Offset: typ.Offset, Token: tok,
			Msg: fmt.Sprintf("cannot decode %s into %s", typ.Value, typ.Type)}
	}
	return &ParseError{Offset: -1, Msg: err.Error()}
}

// oracleGeometry is the wire form of a GeoJSON geometry object.
type oracleGeometry struct {
	Type        string          `json:"type"`
	Coordinates json.RawMessage `json:"coordinates"`
}

type oracleFeature struct {
	Type     string          `json:"type"`
	Geometry *oracleGeometry `json:"geometry"`
	// NEW RULE 1: properties are checked for JSON syntax only (was
	// map[string]any, which rejected a non-object value and an
	// out-of-range number).
	Properties json.RawMessage `json:"properties,omitempty"`
}

// oracleUnmarshal parses a GeoJSON Polygon, MultiPolygon, or Feature
// wrapping one of those.
func oracleUnmarshal(data []byte) (geom.Polygon, error) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, oracleWrapJSON(err)
	}
	switch probe.Type {
	case "Polygon", "MultiPolygon":
		var g oracleGeometry
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, oracleWrapJSON(err)
		}
		return oracleGeometryToPolygon(&g)
	case "Feature":
		var f oracleFeature
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, oracleWrapJSON(err)
		}
		if f.Geometry == nil {
			return nil, nil
		}
		return oracleGeometryToPolygon(f.Geometry)
	default:
		return nil, &ParseError{Offset: -1, Token: probe.Type, Msg: "unsupported type"}
	}
}

// oracleUnmarshalLayer parses a FeatureCollection into a feature layer.
func oracleUnmarshalLayer(data []byte) ([]geom.Polygon, error) {
	var out []geom.Polygon
	err := oracleDecodeFeatures(bytes.NewReader(data), func(p geom.Polygon) error {
		out = append(out, p)
		return nil
	}, true)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func oracleGeometryToPolygon(g *oracleGeometry) (geom.Polygon, error) {
	switch g.Type {
	case "Polygon":
		var coords [][][2]float64
		if err := json.Unmarshal(g.Coordinates, &coords); err != nil {
			return nil, &ParseError{Offset: -1, Token: "coordinates", Msg: "malformed Polygon coordinates: " + err.Error()}
		}
		out := oracleCoordsToRings(coords)
		if err := out.Validate(); err != nil {
			return nil, &ParseError{Offset: -1, Token: "coordinates", Msg: err.Error()}
		}
		return out, nil
	case "MultiPolygon":
		var multi [][][][2]float64
		if err := json.Unmarshal(g.Coordinates, &multi); err != nil {
			return nil, &ParseError{Offset: -1, Token: "coordinates", Msg: "malformed MultiPolygon coordinates: " + err.Error()}
		}
		var out geom.Polygon
		for _, coords := range multi {
			out = append(out, oracleCoordsToRings(coords)...)
		}
		if err := out.Validate(); err != nil {
			return nil, &ParseError{Offset: -1, Token: "coordinates", Msg: err.Error()}
		}
		return out, nil
	default:
		return nil, &ParseError{Offset: -1, Token: g.Type, Msg: "unsupported geometry"}
	}
}

// oracleCoordsToRings converts GeoJSON linear rings, dropping the closing
// duplicate and degenerate rings.
func oracleCoordsToRings(coords [][][2]float64) geom.Polygon {
	var out geom.Polygon
	for _, rc := range coords {
		ring := make(geom.Ring, 0, len(rc))
		for _, c := range rc {
			ring = append(ring, geom.Point{X: c[0], Y: c[1]})
		}
		if len(ring) > 1 && ring[0] == ring[len(ring)-1] {
			ring = ring[:len(ring)-1]
		}
		if len(ring) >= 3 {
			out = append(out, ring)
		}
	}
	return out
}

// oracleDecodeFeatures is the shared implementation. requireCollection
// makes a top-level value that is not a FeatureCollection an error —
// UnmarshalLayer semantics — instead of falling back to newline-delimited
// mode.
func oracleDecodeFeatures(r io.Reader, emit func(p geom.Polygon) error, requireCollection bool) error {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err == io.EOF {
		if requireCollection {
			return &ParseError{Offset: -1, Msg: "empty document, expected FeatureCollection"}
		}
		return nil
	}
	if err != nil {
		return oracleWrapJSON(err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return &ParseError{Offset: dec.InputOffset(), Token: fmt.Sprint(tok),
			Msg: "expected a JSON object"}
	}

	// Walk the first object's keys. Seeing "features" switches to streaming
	// collection mode on the spot; otherwise the collected parts make the
	// object a standalone feature/geometry and the rest of the stream is
	// newline-delimited.
	var typ string
	sawType, sawFeatures := false, false
	nEmitted := 0
	var pendingGeom *oracleGeometry
	var pendingCoords json.RawMessage
	for dec.More() {
		ktok, err := dec.Token()
		if err != nil {
			return oracleWrapJSON(err)
		}
		key, _ := ktok.(string)
		// NEW RULE 2: the first object is read like every later one, whose
		// struct decode matches member names case-insensitively (this
		// switch matched them exactly).
		switch {
		case strings.EqualFold(key, "type"):
			vtok, err := dec.Token()
			if err != nil {
				return oracleWrapJSON(err)
			}
			// NEW RULE 2: a type member that is an object or an array is an
			// error, as in every later object (the walk went on inside it,
			// reading its members or elements as the first object's).
			if d, ok := vtok.(json.Delim); ok {
				return &ParseError{Offset: dec.InputOffset(), Token: "type",
					Msg: fmt.Sprintf("cannot decode %v into string", d)}
			}
			typ, _ = vtok.(string)
			sawType = true
			if requireCollection && typ != "FeatureCollection" {
				return &ParseError{Offset: -1, Token: typ, Msg: "expected FeatureCollection"}
			}
		case strings.EqualFold(key, "features"):
			sawFeatures = true
			if err := oracleStreamFeatureArray(dec, emit, &nEmitted); err != nil {
				return err
			}
		case strings.EqualFold(key, "geometry"):
			if err := dec.Decode(&pendingGeom); err != nil {
				return oracleWrapJSON(err)
			}
		case strings.EqualFold(key, "coordinates"):
			if err := dec.Decode(&pendingCoords); err != nil {
				return oracleWrapJSON(err)
			}
		default:
			if err := oracleSkipValue(dec); err != nil {
				return err
			}
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return oracleWrapJSON(err)
	}

	if requireCollection {
		if typ != "FeatureCollection" {
			return &ParseError{Offset: -1, Token: typ, Msg: "expected FeatureCollection"}
		}
		return nil
	}
	if sawFeatures || typ == "FeatureCollection" {
		if sawType && typ != "FeatureCollection" {
			return &ParseError{Offset: -1, Token: typ, Msg: "expected FeatureCollection"}
		}
		return nil
	}

	// Newline-delimited mode: emit the first object, then decode the
	// remaining whitespace-separated values one at a time.
	if err := oracleEmitStandalone(typ, pendingGeom, pendingCoords, emit, &nEmitted); err != nil {
		return err
	}
	for {
		var f struct {
			Type        string          `json:"type"`
			Geometry    *oracleGeometry `json:"geometry"`
			Coordinates json.RawMessage `json:"coordinates"`
		}
		if err := dec.Decode(&f); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return oracleWrapJSON(err)
		}
		if err := oracleEmitStandalone(f.Type, f.Geometry, f.Coordinates, emit, &nEmitted); err != nil {
			return err
		}
	}
}

// oracleStreamFeatureArray decodes the elements of a "features" array one
// Feature at a time, emitting each geometry as it completes.
func oracleStreamFeatureArray(dec *json.Decoder, emit func(p geom.Polygon) error, idx *int) error {
	tok, err := dec.Token()
	if err != nil {
		return oracleWrapJSON(err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return &ParseError{Offset: dec.InputOffset(), Token: "features",
			Msg: "features must be an array"}
	}
	for dec.More() {
		var f oracleFeature
		if err := dec.Decode(&f); err != nil {
			return oracleWrapJSON(err)
		}
		if f.Geometry == nil {
			*idx++
			continue
		}
		p, err := oracleGeometryToPolygon(f.Geometry)
		if err != nil {
			return fmt.Errorf("geojson: feature %d: %w", *idx, err)
		}
		*idx++
		if err := emit(p); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		return oracleWrapJSON(err)
	}
	return nil
}

// oracleEmitStandalone converts one newline-delimited value — a Feature
// (geometry captured in g) or a bare Polygon/MultiPolygon (coordinates
// captured in coords) — and emits it.
func oracleEmitStandalone(typ string, g *oracleGeometry, coords json.RawMessage, emit func(p geom.Polygon) error, idx *int) error {
	switch typ {
	case "Feature":
		if g == nil {
			*idx++
			return nil
		}
	case "Polygon", "MultiPolygon":
		g = &oracleGeometry{Type: typ, Coordinates: coords}
	default:
		return &ParseError{Offset: -1, Token: typ, Msg: "unsupported type"}
	}
	p, err := oracleGeometryToPolygon(g)
	if err != nil {
		return fmt.Errorf("geojson: feature %d: %w", *idx, err)
	}
	*idx++
	return emit(p)
}

// oracleSkipValue consumes one complete JSON value (scalar, object, or
// array) from the decoder without retaining it.
func oracleSkipValue(dec *json.Decoder) error {
	// NEW RULE 2: a member the first object does not read is checked for
	// JSON syntax only, as in every later object (this walked it token by
	// token, which also rejected an out-of-range number inside it).
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return oracleWrapJSON(err)
	}
	return nil
}
