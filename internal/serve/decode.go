package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"polyclip"
	"polyclip/internal/engine"
	"polyclip/internal/geojson"
	"polyclip/internal/geom"
	"polyclip/internal/tile"
	"polyclip/internal/wkt"
)

// ClipRequest is the wire form of one clipping request. The operands are
// either JSON strings holding WKT or inline GeoJSON geometry/Feature
// objects; the two forms can be mixed freely.
type ClipRequest struct {
	Subject   json.RawMessage `json:"subject"`
	Clip      json.RawMessage `json:"clip"`
	Op        string          `json:"op"`
	Rule      string          `json:"rule,omitempty"`      // "" | "evenodd" | "nonzero" | "positive" | "negative"
	Algorithm string          `json:"algorithm,omitempty"` // "" | "overlay" | "slabs" | "scanbeam" | "sequential"
}

// ClipResponse is the wire form of a successful clip: the result as a
// GeoJSON geometry plus the engine attribution and resilience trail the
// metrics pipeline records.
type ClipResponse struct {
	Result   json.RawMessage `json:"result"`
	Engine   string          `json:"engine,omitempty"`
	Degraded bool            `json:"degraded,omitempty"`
	Attempts []string        `json:"attempts,omitempty"`
	Stats    *polyclip.Stats `json:"stats,omitempty"`
}

// ErrorResponse is the wire form of every non-2xx answer: a stable machine
// code, a human message, and — for parse failures — the byte offset and
// offending token so clients can pinpoint the problem in their payload.
type ErrorResponse struct {
	Code              string `json:"code"`
	Error             string `json:"error"`
	Field             string `json:"field,omitempty"`  // "subject" / "clip" for operand errors
	Offset            int64  `json:"offset,omitempty"` // byte offset into the operand, when known
	Token             string `json:"token,omitempty"`  // offending token, when known
	RetryAfterSeconds int    `json:"retryAfterSeconds,omitempty"`
}

// httpError is an error already mapped to an HTTP answer.
type httpError struct {
	status int
	body   ErrorResponse
}

func (e *httpError) Error() string { return e.body.Error }

func httpErrorf(status int, code, format string, args ...any) *httpError {
	return &httpError{status: status, body: ErrorResponse{Code: code, Error: fmt.Sprintf(format, args...)}}
}

// parsedRequest is a decoded, validated request ready to admit: a clip
// (the default) or — when tileSpec is non-nil — a tile-cutting job, where
// subject holds the layer and op/clip are unused. Both kinds take the same
// admission, degraded and shed path.
type parsedRequest struct {
	subject, clip polyclip.Polygon
	op            polyclip.Op
	rule          polyclip.FillRule
	algo          polyclip.Algorithm
	opName        string
	algoName      string

	tileSpec *tile.Spec
}

// decodeRequest turns an HTTP request into a validated clip job, mapping
// every failure mode to a typed 4xx: wrong method and content type, bodies
// over the limit, malformed JSON (with the decoder's byte offset), unknown
// op/rule/algorithm values, and operand parse errors carrying the
// position context of the WKT/GeoJSON parsers.
func decodeRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*parsedRequest, *httpError) {
	body, he := readBody(w, r, maxBody)
	if he != nil {
		return nil, he
	}
	var req ClipRequest
	if he := unmarshalBody(body, &req); he != nil {
		return nil, he
	}

	out := &parsedRequest{opName: strings.ToLower(req.Op)}
	switch out.opName {
	case "intersection":
		out.op = polyclip.Intersection
	case "union":
		out.op = polyclip.Union
	case "difference":
		out.op = polyclip.Difference
	case "xor":
		out.op = polyclip.Xor
	default:
		return nil, httpErrorf(http.StatusBadRequest, "unknown-op",
			"op %q is not one of intersection, union, difference, xor", req.Op)
	}
	rule, he := parseRule(req.Rule)
	if he != nil {
		return nil, he
	}
	out.rule = rule
	out.algoName = strings.ToLower(req.Algorithm)
	switch out.algoName {
	case "", "overlay":
		out.algo, out.algoName = polyclip.AlgoOverlay, "overlay"
	case "slabs":
		out.algo = polyclip.AlgoSlabs
	case "scanbeam":
		out.algo = polyclip.AlgoScanbeam
	case "sequential":
		out.algo = polyclip.AlgoSequential
	default:
		return nil, httpErrorf(http.StatusBadRequest, "unknown-algorithm",
			"algorithm %q is not one of overlay, slabs, scanbeam, sequential", req.Algorithm)
	}

	var err error
	if out.subject, err = parseOperand(req.Subject); err != nil {
		return nil, operandError("subject", err)
	}
	if out.clip, err = parseOperand(req.Clip); err != nil {
		return nil, operandError("clip", err)
	}
	return out, nil
}

// readBody enforces the content type and size limit and slurps the body.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, *httpError) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && mt != "application/geo+json" && mt != "text/json") {
			return nil, httpErrorf(http.StatusUnsupportedMediaType, "unsupported-content-type",
				"content type %q is not supported; send application/json", ct)
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, httpErrorf(http.StatusRequestEntityTooLarge, "body-too-large",
				"request body exceeds the %d byte limit", mbe.Limit)
		}
		return nil, httpErrorf(http.StatusBadRequest, "body-read", "reading request body: %v", err)
	}
	return body, nil
}

// unmarshalBody decodes the JSON envelope, mapping failures to a 400 with
// the decoder's byte offset.
func unmarshalBody(body []byte, v any) *httpError {
	err := json.Unmarshal(body, v)
	if err == nil {
		return nil
	}
	he := httpErrorf(http.StatusBadRequest, "malformed-json", "malformed request body: %v", err)
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		he.body.Offset = syn.Offset
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		he.body.Offset = typ.Offset
		he.body.Token = typ.Field
	}
	return he
}

// parseRule maps the wire rule name to the engine rule.
func parseRule(s string) (polyclip.FillRule, *httpError) {
	r, ok := engine.ParseRule(s)
	if !ok {
		return 0, httpErrorf(http.StatusBadRequest, "unknown-rule",
			"rule %q is not one of evenodd, nonzero, positive, negative", s)
	}
	return r, nil
}

// TileRequest is the wire form of one tile-cutting request: a layer plus a
// pyramid spec. When extent is omitted the pyramid covers the padded square
// around the layer's bounding box.
type TileRequest struct {
	Layer   json.RawMessage `json:"layer"`
	MinZoom int             `json:"minZoom"`
	MaxZoom int             `json:"maxZoom"`
	Extent  []float64       `json:"extent,omitempty"` // [minX, minY, maxX, maxY]
	Rule    string          `json:"rule,omitempty"`
}

// TileFeature is one non-empty tile on the wire.
type TileFeature struct {
	Z        int             `json:"z"`
	X        int32           `json:"x"`
	Y        int32           `json:"y"`
	Geometry json.RawMessage `json:"geometry"`
}

// TileResponse is the wire form of a successful cut.
type TileResponse struct {
	Tiles    []TileFeature `json:"tiles"`
	Count    int           `json:"count"`
	Stats    *tile.Stats   `json:"stats,omitempty"`
	Degraded bool          `json:"degraded,omitempty"`
}

// serveMaxZoom caps pyramid depth over HTTP: zoom 10 is a million-tile
// response ceiling, far past any sane payload but safely below the
// driver's materialization limit.
const serveMaxZoom = 10

// decodeTileRequest turns an HTTP request into a validated tile-cutting job.
func decodeTileRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*parsedRequest, *httpError) {
	body, he := readBody(w, r, maxBody)
	if he != nil {
		return nil, he
	}
	var req TileRequest
	if he := unmarshalBody(body, &req); he != nil {
		return nil, he
	}
	rule, he := parseRule(req.Rule)
	if he != nil {
		return nil, he
	}
	layer, err := parseOperand(req.Layer)
	if err != nil {
		return nil, operandError("layer", err)
	}
	if req.MaxZoom > serveMaxZoom {
		return nil, httpErrorf(http.StatusBadRequest, "zoom-too-deep",
			"maxZoom %d exceeds the serving limit %d", req.MaxZoom, serveMaxZoom)
	}
	spec := tile.Spec{MinZoom: req.MinZoom, MaxZoom: req.MaxZoom}
	switch len(req.Extent) {
	case 0:
		spec.Extent = tile.SquareExtent(layer.BBox())
	case 4:
		spec.Extent = geom.BBox{MinX: req.Extent[0], MinY: req.Extent[1], MaxX: req.Extent[2], MaxY: req.Extent[3]}
	default:
		return nil, httpErrorf(http.StatusBadRequest, "bad-extent",
			"extent must be [minX, minY, maxX, maxY], got %d values", len(req.Extent))
	}
	if err := spec.Validate(); err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "bad-spec", "%v", err)
	}
	return &parsedRequest{
		subject:  layer,
		rule:     rule,
		opName:   "tiles",
		algoName: "tiles",
		tileSpec: &spec,
	}, nil
}

// parseOperand decodes one operand: a JSON string is WKT, an object is a
// GeoJSON geometry or Feature.
func parseOperand(raw json.RawMessage) (polyclip.Polygon, error) {
	trimmed := strings.TrimSpace(string(raw))
	switch {
	case trimmed == "" || trimmed == "null":
		return nil, errors.New("operand is missing")
	case trimmed[0] == '"':
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("malformed WKT string: %v", err)
		}
		return polyclip.ParseWKT(s)
	case trimmed[0] == '{':
		return polyclip.ParseGeoJSON(raw)
	default:
		return nil, errors.New("operand must be a WKT string or a GeoJSON object")
	}
}

// operandError maps a WKT/GeoJSON parse failure to a 400 carrying the
// parser's position context.
func operandError(field string, err error) *httpError {
	he := httpErrorf(http.StatusBadRequest, "bad-"+field, "%s: %v", field, err)
	he.body.Field = field
	var se *wkt.SyntaxError
	if errors.As(err, &se) {
		he.body.Offset = int64(se.Offset)
		he.body.Token = se.Token
		return he
	}
	var pe *geojson.ParseError
	if errors.As(err, &pe) {
		if pe.Offset >= 0 {
			he.body.Offset = pe.Offset
		}
		he.body.Token = pe.Token
	}
	return he
}

// clipError maps a pipeline error to its HTTP answer: typed 4xx for invalid
// input and unsupported rule/algorithm combinations, 504 for deadline
// exhaustion, and a structured 500 for everything the chain could not
// absorb.
func clipError(err error) *httpError {
	switch {
	case errors.Is(err, polyclip.ErrInvalidInput):
		return httpErrorf(http.StatusBadRequest, "invalid-input", "%v", err)
	case errors.Is(err, polyclip.ErrUnsupported):
		return httpErrorf(http.StatusUnprocessableEntity, "unsupported", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return httpErrorf(http.StatusGatewayTimeout, "deadline", "%v", err)
	case errors.Is(err, context.Canceled):
		// The client went away; 499-style. No standard code exists, so use
		// 408 — the body will rarely be read anyway.
		return httpErrorf(http.StatusRequestTimeout, "canceled", "%v", err)
	default:
		var ce *polyclip.ClipError
		if errors.As(err, &ce) {
			return httpErrorf(http.StatusInternalServerError, "clip-failed",
				"clipping failed after every fallback: %v", err)
		}
		return httpErrorf(http.StatusInternalServerError, "internal", "%v", err)
	}
}
