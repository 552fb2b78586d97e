package geojson

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"polyclip/internal/geom"
)

const (
	bufSize  = 64 << 10 // the streaming reader's one buffer
	maxDepth = 10000    // encoding/json's nesting limit, counted as it counted
)

// DecodeFeatures streams polygon features out of r without ever buffering
// the document: a FeatureCollection (each feature is emitted as soon as its
// element ends; reading stops at the collection's end) or newline-delimited
// GeoJSON (a sequence of Feature or Polygon/MultiPolygon values, one per
// line — the GeoJSONL convention large GIS exports use). emit is called
// once per feature, in document order; an error from emit aborts the
// decode and is returned verbatim. Features with null geometry are
// skipped. The reader holds one 64 KiB buffer and at most the current
// feature, and reads each byte once by the rules of the package doc.
// Errors are *ParseError; one inside a feature reads "geojson: feature N: …".
func DecodeFeatures(r io.Reader, emit func(p geom.Polygon) error) error {
	d := &reader{r: r, buf: make([]byte, bufSize), emit: emit}
	return d.run(func() { d.stream(false) })
}

// UnmarshalLayer parses a FeatureCollection into a feature layer with
// DecodeFeatures' reader.
func UnmarshalLayer(data []byte) ([]geom.Polygon, error) {
	var out []geom.Polygon
	d := &reader{buf: data, end: len(data), emit: func(p geom.Polygon) error {
		out = append(out, p)
		return nil
	}}
	if err := d.run(func() { d.stream(true) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Unmarshal parses a GeoJSON Polygon, MultiPolygon, or Feature wrapping
// one of those (null geometry yields a nil polygon) with DecodeFeatures'
// reader. data must hold exactly one JSON value.
func Unmarshal(data []byte) (geom.Polygon, error) {
	var p geom.Polygon
	d := &reader{buf: data, end: len(data), emit: func(q geom.Polygon) error {
		p = q
		return nil
	}}
	err := d.run(func() {
		o := d.top(atTop)
		d.atEnd()
		if o.typ == kPolygon || o.typ == kMulti {
			o.geomErr = nil // a Polygon's geometry member is not read
		}
		d.standalone(o)
	})
	if pe := (*ParseError)(nil); errors.As(err, &pe) {
		return nil, pe // not as feature 0
	}
	return p, err
}

// reader is the single-pass reader; its methods report a failure by
// bailing out to run. buf[pos:end] is unread input, buf[0] sits at
// document offset base, and a nil r means buf holds the whole document.
type reader struct {
	r            io.Reader
	rerr         error // what ended r
	buf          []byte
	pos, end     int
	base         int64
	depth, floor int     // containers open at the cursor; those not counted toward maxDepth
	capture      *[]byte // where consumed bytes go while coordinates are read
	capFrom      int     // start of the bytes in buf not yet captured

	text  []byte       // an unescaped string or a number that straddles a refill
	pts   []geom.Point // the ring being parsed
	rings []geom.Ring  // the rings of the coordinates being parsed
	terr  string       // the first type error inside them

	objs [3]object // a top-level object, a feature or geometry in it, a geometry in that
	emit func(geom.Polygon) error
	n    int // features read, for error messages
}

type bailout struct{ err error }

func bail(err error) { panic(bailout{err}) }

// run calls read and returns the error it bailed out with.
func (d *reader) run(read func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			b, ok := r.(bailout)
			if !ok {
				panic(r)
			}
			err = b.err
		}
	}()
	read()
	return nil
}

// Where an object is read decides which members are read; the syntax of
// every other member is checked only.
const (
	atTop      = iota // a top-level value: type, coordinates, geometry
	atFirst           // the first value of a stream: features as well
	atFeature         // an element of a features array: type, geometry
	atGeometry        // a geometry member's value: type, coordinates
)

// kind is the value of a type member.
type kind uint8

const (
	kAbsent kind = iota
	kNull
	kBad // neither a string nor null
	kPolygon
	kMulti
	kFeature
	kCollection
	kOther // any other string
)

var typeNames = [...]string{kPolygon: "Polygon", kMulti: "MultiPolygon", kFeature: "Feature", kCollection: "FeatureCollection"}

// object is what one object's members say. Errors that only some readers
// report wait here until the object ends and its type is known.
type object struct {
	typ  kind
	name string      // the type string
	bad  *ParseError // a type member that is neither a string nor null

	coords   bool   // a coordinates member was present
	raw      []byte // its text
	parsedAs kind   // the type its rings were parsed as, kAbsent if they were not
	rings    geom.Polygon
	coordErr string // the first type error inside them

	g        *object     // the geometry member's object; nil when absent or null
	geomErr  *ParseError // a geometry member that is not an object or null, or has a bad type
	features bool        // a features member was present
}

func (o *object) failure() error {
	if e := cmp.Or(o.bad, o.geomErr); e != nil {
		return e
	}
	return nil
}

// stream reads a FeatureCollection or a newline-delimited sequence of
// features. requireCollection makes a top-level value that is not a
// FeatureCollection an error — UnmarshalLayer's contract.
func (d *reader) stream(requireCollection bool) {
	if _, ok := d.peek(); !ok {
		if requireCollection {
			bail(&ParseError{Offset: -1, Msg: "empty document, expected FeatureCollection"})
		}
		return
	}
	d.floor = 1 // the first object's members count toward maxDepth from their own start
	o := d.top(atFirst)
	d.floor = 0
	if requireCollection || o.features || o.typ == kCollection {
		if err := o.failure(); err != nil {
			bail(err)
		}
		if o.typ != kCollection && (requireCollection || o.typ != kAbsent) {
			bail(&ParseError{Offset: -1, Token: o.name, Msg: "expected FeatureCollection"})
		}
		return
	}
	for {
		d.standalone(o)
		if _, ok := d.peek(); !ok {
			return
		}
		o = d.top(atTop)
	}
}

// top reads the top-level object at the cursor.
func (d *reader) top(at int) *object {
	if c := d.next(); c != '{' {
		off := d.off() + 1
		d.skip()
		bail(&ParseError{Offset: off, Token: jsonKind(c), Msg: "expected a JSON object"})
	}
	d.object(&d.objs[0], 0, at)
	return &d.objs[0]
}

// standalone emits a top-level Feature or Polygon/MultiPolygon.
func (d *reader) standalone(o *object) {
	switch o.typ {
	case kFeature:
		d.feature(o, o.g)
	case kPolygon, kMulti:
		d.feature(o, o)
	default:
		bail(cmp.Or(o.failure(), error(&ParseError{Offset: -1, Token: o.name, Msg: "unsupported type"})))
	}
}

// feature emits the polygon of g, the geometry of feature o, as feature
// d.n; a nil g is null geometry.
func (d *reader) feature(o, g *object) {
	err := o.failure()
	var p geom.Polygon
	if err == nil && g != nil {
		p, err = d.polygon(g)
	}
	if err != nil {
		bail(fmt.Errorf("geojson: feature %d: %w", d.n, err))
	}
	d.n++
	if g != nil {
		if err := d.emit(p); err != nil {
			bail(err)
		}
	}
}

// object reads the object at the cursor into o, d.objs[level].
func (d *reader) object(o *object, level, at int) {
	*o = object{raw: o.raw[:0]}
	d.open()
	for first := true; ; first = false {
		switch name, more := d.member(first); {
		case !more:
			return
		case name == "type":
			d.typeMember(o)
		case name == "coordinates" && at != atFeature:
			d.coordinates(o)
		case name == "geometry" && at != atGeometry:
			d.geometry(o, level)
		case name == "features" && at == atFirst:
			o.features = true
			d.features(level)
		default:
			d.skip()
		}
	}
}

func (d *reader) typeMember(o *object) {
	o.typ, o.name, o.bad = kBad, "", nil
	switch c := d.next(); c {
	case '"':
		s := d.str(true)
		o.typ = kOther
		for k, name := range typeNames {
			if name != "" && string(s) == name {
				o.typ, o.name = kind(k), name
			}
		}
		if o.typ == kOther {
			o.name = string(s)
		}
	case 'n':
		o.typ = kNull
		d.literal("null")
	default:
		o.bad = &ParseError{Offset: d.off() + 1, Token: "type", Msg: "cannot decode " + jsonKind(c) + " into string"}
		d.skip()
	}
}

// coordinates reads a coordinates member. When o's type is known to be
// Polygon or MultiPolygon the rings are parsed on the way; the text is kept
// either way, so that a type member after it can have it reread.
func (d *reader) coordinates(o *object) {
	o.coords, o.raw, o.parsedAs = true, o.raw[:0], kAbsent
	d.capture, d.capFrom = &o.raw, d.pos
	if o.typ == kPolygon || o.typ == kMulti {
		d.parseCoords(o, o.typ)
	} else {
		d.skip()
	}
	o.raw = append(o.raw, d.buf[d.capFrom:d.pos]...)
	d.capture = nil
}

// geometry reads a geometry member into d.objs[level+1].
func (d *reader) geometry(o *object, level int) {
	o.g, o.geomErr = nil, nil
	switch c := d.next(); c {
	case 'n':
		d.literal("null")
	case '{':
		o.g = &d.objs[level+1]
		d.object(o.g, level+1, atGeometry)
		if o.g.bad != nil {
			e := *o.g.bad
			e.Token = "geometry.type"
			o.geomErr = &e
		}
	default:
		o.geomErr = &ParseError{Offset: d.off() + 1, Token: "geometry", Msg: "cannot decode " + jsonKind(c) + " into a geometry object"}
		d.skip()
	}
}

// features streams the elements of a features array, emitting each
// feature as its element ends. An element's type is not checked beyond
// being a string or null.
func (d *reader) features(level int) {
	if d.next() != '[' {
		bail(&ParseError{Offset: d.off() + 1, Token: "features", Msg: "features must be an array"})
	}
	d.open()
	floor := d.floor
	d.floor = d.depth // elements count toward maxDepth from their own start
	for first := true; d.elem(first); first = false {
		switch c := d.next(); c {
		case 'n':
			d.literal("null")
			d.n++
		case '{':
			o := &d.objs[level+1]
			d.object(o, level+1, atFeature)
			d.feature(o, o.g)
		default:
			bail(fmt.Errorf("geojson: feature %d: %w", d.n, &ParseError{Offset: d.off() + 1, Token: jsonKind(c), Msg: "expected a JSON object"}))
		}
	}
	d.floor = floor
}

// polygon converts a Polygon or MultiPolygon object's coordinates.
func (d *reader) polygon(o *object) (geom.Polygon, error) {
	switch {
	case o.typ != kPolygon && o.typ != kMulti:
		return nil, &ParseError{Offset: -1, Token: o.name, Msg: "unsupported geometry"}
	case !o.coords:
		return nil, &ParseError{Offset: -1, Token: "coordinates", Msg: "malformed " + o.name + " coordinates: missing"}
	case o.parsedAs != o.typ: // the type came after the coordinates: reread them
		(&reader{buf: o.raw, end: len(o.raw)}).parseCoords(o, o.typ)
	}
	if o.coordErr != "" {
		return nil, &ParseError{Offset: -1, Token: "coordinates", Msg: "malformed " + o.name + " coordinates: " + o.coordErr}
	}
	return o.rings, nil
}

// parseCoords reads a coordinates value into o as k nests it — rings for
// a Polygon, polygons of rings for a MultiPolygon — flattened to one ring
// list, without closing duplicates or rings of fewer than three points. A
// value of the wrong kind is an error recorded in o.coordErr, the first
// one only, and reading goes on, as encoding/json did.
func (d *reader) parseCoords(o *object, k kind) {
	d.terr, d.rings = "", d.rings[:0]
	d.nest(1 + int(k-kPolygon))
	o.rings, o.parsedAs, o.coordErr = nil, k, d.terr
	if len(d.rings) > 0 && d.terr == "" {
		o.rings = append(geom.Polygon(nil), d.rings...)
	}
	clear(d.rings)
}

// nest reads an array of levels nested arrays whose innermost elements are
// rings.
func (d *reader) nest(levels int) {
	if !d.array("[]") {
		return
	}
	for first := true; d.elem(first); first = false {
		if levels > 1 {
			d.nest(levels - 1)
			continue
		}
		if !d.array("ring") {
			continue
		}
		d.pts = d.pts[:0]
		for first := true; d.elem(first); first = false {
			d.pts = append(d.pts, d.position())
		}
		pts := d.pts
		if n := len(pts); n > 1 && pts[0] == pts[n-1] {
			pts = pts[:n-1]
		}
		if len(pts) >= 3 && d.terr == "" {
			d.rings = append(d.rings, append(geom.Ring(nil), pts...))
		}
	}
}

// position reads a position: its first two numbers are x and y (missing or
// null ones read as 0) and any more are only checked.
func (d *reader) position() geom.Point {
	var xy [2]float64
	if !d.array("[2]float64") {
		return geom.Point{}
	}
	for i := 0; d.elem(i == 0); i++ {
		switch c := d.next(); {
		case i >= 2:
			d.skip()
		case c == '-' || c >= '0' && c <= '9':
			s := d.number()
			f, err := strconv.ParseFloat(string(s), 64)
			if err != nil {
				d.typeErr("number " + string(s) + " into float64")
			}
			xy[i] = f
		case c == 'n':
			d.literal("null")
		default:
			d.typeErr(jsonKind(c) + " into float64")
			d.skip()
		}
	}
	return geom.Point{X: xy[0], Y: xy[1]}
}

// array opens the array at the cursor and reports true. null reads as an
// empty array; anything else is a type error.
func (d *reader) array(into string) bool {
	switch c := d.next(); c {
	case '[':
		d.open()
		return true
	case 'n':
		d.literal("null")
	default:
		d.typeErr(jsonKind(c) + " into " + into)
		d.skip()
	}
	return false
}

func (d *reader) typeErr(what string) {
	if d.terr == "" {
		d.terr = "cannot decode " + what
	}
}

var memberNames = [...]string{"type", "coordinates", "geometry", "features"}

// member moves to the next member of the object being read, past its name
// and colon, and returns the name if the reader dispatches on it (matched
// case-insensitively, as encoding/json matched struct fields); more is
// false once the closing brace is consumed.
func (d *reader) member(first bool) (name string, more bool) {
	c := d.next()
	switch {
	case c == '}':
		d.pos++
		d.depth--
		return "", false
	case c == ',' && !first:
		d.pos++
		c = d.next()
	case !first:
		d.fail("after object key:value pair")
	}
	if c != '"' {
		d.fail("looking for beginning of object key string")
	}
	key := d.str(true)
	for _, m := range memberNames {
		if strings.EqualFold(string(key), m) {
			name = m
		}
	}
	if d.next() != ':' {
		d.fail("after object key")
	}
	d.pos++
	return name, true
}

// elem moves to the next element of the array being read, past the comma
// before it; it reports false once the closing bracket is consumed.
func (d *reader) elem(first bool) bool {
	switch c := d.next(); {
	case c == ']':
		d.pos++
		d.depth--
		return false
	case c == ',' && !first:
		d.pos++
	case !first:
		d.fail("after array element")
	}
	return true
}

// open consumes the '{' or '[' at the cursor.
func (d *reader) open() {
	if d.depth-d.floor >= maxDepth {
		d.fail("exceeded max depth")
	}
	d.depth++
	d.pos++
}

// skip reads one value of any kind, checking its syntax only.
func (d *reader) skip() {
	switch c := d.next(); {
	case c == '{':
		d.open()
		for first := true; ; first = false {
			if _, more := d.member(first); !more {
				return
			}
			d.skip()
		}
	case c == '[':
		d.open()
		for first := true; d.elem(first); first = false {
			d.skip()
		}
	case c == '"':
		d.str(false)
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		d.number()
	default:
		d.fail("looking for beginning of value")
	}
}

// str reads the string at the cursor. With keep it returns the string's
// unescaped bytes, valid until the next read.
func (d *reader) str(keep bool) []byte {
	d.pos++
	d.text = d.text[:0]
	for {
		i := d.pos
		for i < d.end && d.buf[i] != '"' && d.buf[i] != '\\' && d.buf[i] >= ' ' {
			i++
		}
		if keep {
			d.text = append(d.text, d.buf[d.pos:i]...)
		}
		if d.pos = i; i == d.end {
			if !d.fill() {
				d.eof()
			}
			continue
		}
		switch d.pos++; d.buf[i] {
		case '"':
			return d.text
		case '\\':
			if r := d.escape(); keep {
				d.text = utf8.AppendRune(d.text, r)
			}
		default:
			d.pos--
			d.fail("in string literal")
		}
	}
}

// escape reads the escape after a backslash. Surrogates are not paired: no
// name the reader matches has one.
func (d *reader) escape() rune {
	c := d.byte()
	if i := strings.IndexByte(`"\/bfnrt`, c); i >= 0 {
		return rune("\"\\/\b\f\n\r\t"[i])
	}
	if c != 'u' {
		d.pos--
		d.fail("in string escape code")
	}
	var r rune
	for i := 0; i < 4; i++ {
		h := strings.IndexByte("0123456789abcdef0123456789ABCDEF", d.byte())
		if h < 0 {
			d.pos--
			d.fail("in \\u hexadecimal character escape")
		}
		r = r<<4 | rune(h&15)
	}
	return r
}

// numClass classes the bytes of a number for numberDFA, 0 for any other.
var numClass = [256]int8{'0': 1, '1': 2, '2': 2, '3': 2, '4': 2, '5': 2, '6': 2, '7': 2, '8': 2, '9': 2,
	'-': 3, '+': 4, '.': 5, 'e': 6, 'E': 6}

// numberDFA is JSON's number grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?:
// state s moves on class c to numberDFA[s][c-1], -1 rejects, and the states
// in numberEnds end a number.
var numberDFA = [9][6]int8{{2, 3, 1, -1, -1, -1}, {2, 3, -1, -1, -1, -1}, {-1, -1, -1, -1, 4, 6},
	{3, 3, -1, -1, 4, 6}, {5, 5, -1, -1, -1, -1}, {5, 5, -1, -1, -1, 6},
	{8, 8, 7, 7, -1, -1}, {8, 8, -1, -1, -1, -1}, {8, 8, -1, -1, -1, -1}}

const numberEnds = 1<<2 | 1<<3 | 1<<5 | 1<<8

// number reads the number at the cursor, checking its grammar as it goes,
// and returns its text, valid until the next read.
func (d *reader) number() []byte {
	state, from := int8(0), d.pos
	d.text = d.text[:0]
	for {
		buf, i := d.buf[:d.end], d.pos
		for ; i < len(buf) && numClass[buf[i]] != 0; i++ {
			if state = numberDFA[state][numClass[buf[i]]-1]; state < 0 {
				d.pos = i
				d.fail("in numeric literal")
			}
		}
		if d.pos = i; i < d.end || d.r == nil {
			break
		}
		d.text = append(d.text, d.buf[from:d.pos]...) // the number may go on in the next read
		if from = 0; !d.fill() {
			break
		}
	}
	if numberEnds&(1<<state) == 0 { // the number stops short
		if d.pos == d.end {
			d.eof()
		}
		d.fail("in numeric literal")
	}
	if len(d.text) > 0 {
		return append(d.text, d.buf[from:d.pos]...)
	}
	return d.buf[from:d.pos]
}

// literal reads true, false or null, whose first byte is at the cursor.
func (d *reader) literal(word string) {
	for i := 0; i < len(word); i++ {
		if d.byte() != word[i] {
			d.pos--
			d.fail("in literal " + word + " (expecting " + quoteChar(word[i]) + ")")
		}
	}
}

// byte consumes one byte of a token, which the input may not end inside.
func (d *reader) byte() byte {
	if d.pos == d.end && !d.fill() {
		d.eof()
	}
	d.pos++
	return d.buf[d.pos-1]
}

// peek skips whitespace and returns the next byte without consuming it; ok
// is false at the end of the input.
func (d *reader) peek() (c byte, ok bool) {
	for {
		for ; d.pos < d.end; d.pos++ {
			if c := d.buf[d.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return c, true
			}
		}
		if !d.fill() {
			return 0, false
		}
	}
}

// next is peek inside a value, which the input may not end inside.
func (d *reader) next() byte {
	c, ok := d.peek()
	if !ok {
		d.eof()
	}
	return c
}

// atEnd requires the rest of the input to be whitespace.
func (d *reader) atEnd() {
	if _, ok := d.peek(); ok {
		d.fail("after top-level value")
	}
}

// fill reads more input once buf is consumed, first handing the consumed
// bytes to the capture. It reports whether any arrived, and bails out with
// a read error.
func (d *reader) fill() bool {
	if d.r == nil {
		return false
	}
	if d.capture != nil {
		*d.capture = append(*d.capture, d.buf[d.capFrom:d.end]...)
		d.capFrom = 0
	}
	d.base += int64(d.end)
	d.pos, d.end = 0, 0
	for tries := 0; d.end == 0 && d.rerr == nil; tries++ {
		if tries == 100 {
			d.rerr = io.ErrNoProgress
			break
		}
		d.end, d.rerr = d.r.Read(d.buf)
	}
	if d.end == 0 && d.rerr != io.EOF {
		bail(&ParseError{Offset: -1, Msg: d.rerr.Error()})
	}
	return d.end > 0
}

func (d *reader) off() int64 { return d.base + int64(d.pos) }

// eof reports the input ending inside a value.
func (d *reader) eof() { bail(&ParseError{Offset: d.off(), Msg: "unexpected end of JSON input"}) }

// fail reports the byte at the cursor as a syntax error.
func (d *reader) fail(context string) {
	bail(&ParseError{Offset: d.off() + 1, Msg: "invalid character " + quoteChar(d.buf[d.pos]) + " " + context})
}

func quoteChar(c byte) string { return fmt.Sprintf("%q", rune(c)) }

var kinds = [256]string{'{': "object", '[': "array", '"': "string", 't': "bool", 'f': "bool", 'n': "null"}

// jsonKind names the kind of the JSON value that starts with c.
func jsonKind(c byte) string { return cmp.Or(kinds[c], "number") }
