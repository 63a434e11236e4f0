// Package asm implements a two-pass assembler for the GA64 guest ISA. It
// plays the role of the cross-toolchain the paper uses to produce statically
// linked ARM binaries (§6.1): guest programs — hand-written runtime code and
// mini-C compiler output — are assembled and linked into a single
// image.Image.
//
// Syntax summary:
//
//	.text / .rodata / .data / .bss     select the current section
//	.global name                       export a symbol (informational)
//	.align n                           pad to an n-byte boundary
//	.byte/.half/.word/.quad e, ...     emit integers (expressions allowed)
//	.double f, ...                     emit float64 constants
//	.ascii/.asciz "s"                  emit a string (asciz NUL-terminates)
//	.space n [, fill]                  emit n fill bytes (reserve in .bss)
//	.equ name, expr                    define an assembly-time constant
//
//	label:      mnemonic op1, op2, ...   ; comment  (# and // also comment)
//
// Numeric labels ("1:") may be defined repeatedly and referenced with "1b"
// (nearest before) and "1f" (nearest after), as in GNU as. Pseudo
// instructions: li, lid, la, mv, not, neg, seqz, snez, beqz, bnez, bltz,
// bgez, bgtz, blez, bgt, ble, bgtu, bleu, j, call, jr, ret, fli.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dqemu/internal/image"
	"dqemu/internal/isa"
)

// Source is one assembly input file.
type Source struct {
	Name string
	Text string
}

// Options configure assembly.
type Options struct {
	// TextBase is the load address of the text section. Zero means
	// image.DefaultTextBase.
	TextBase uint64
}

// Assemble assembles and links the sources into a guest image.
func Assemble(sources ...Source) (*image.Image, error) {
	return AssembleOptions(Options{}, sources...)
}

// AssembleOptions is Assemble with explicit options.
func AssembleOptions(opts Options, sources ...Source) (*image.Image, error) {
	if opts.TextBase == 0 {
		opts.TextBase = image.DefaultTextBase
	}
	a := newAssembler(opts)
	for _, src := range sources {
		a.pass1(src)
	}
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	a.layout()
	im, err := a.pass2()
	if err != nil {
		return nil, err
	}
	return im, nil
}

type section struct {
	name     string
	writable bool
	noData   bool // .bss: reserves space only
	cursor   uint64
	base     uint64
	buf      []byte
}

type symPos struct {
	sec *section
	off uint64
}

type numPos struct {
	order int
	sec   *section
	off   uint64
}

type item struct {
	src    string
	line   int
	sec    *section
	off    uint64
	size   uint64
	order  int
	encode func(pc uint64) ([]byte, error)
}

type assembler struct {
	opts     Options
	sections []*section
	byName   map[string]*section
	cur      *section
	items    []*item
	labels   map[string]symPos
	equates  map[string]int64
	numeric  map[string][]numPos
	order    int
	errs     []error

	// Current source position, for diagnostics.
	file string
	line int
}

func newAssembler(opts Options) *assembler {
	text := &section{name: "text"}
	rodata := &section{name: "rodata"}
	data := &section{name: "data", writable: true}
	bss := &section{name: "bss", writable: true, noData: true}
	a := &assembler{
		opts:     opts,
		sections: []*section{text, rodata, data, bss},
		byName:   map[string]*section{"text": text, "rodata": rodata, "data": data, "bss": bss},
		labels:   map[string]symPos{},
		equates:  map[string]int64{},
		numeric:  map[string][]numPos{},
	}
	a.cur = text
	return a
}

func (a *assembler) errorf(format string, args ...interface{}) {
	a.errs = append(a.errs, fmt.Errorf("%s:%d: %s", a.file, a.line, fmt.Sprintf(format, args...)))
}

// pass1 parses one source file, defining labels and laying out item sizes.
// Every file starts in .text, as with separately assembled objects.
func (a *assembler) pass1(src Source) {
	a.file = src.Name
	a.cur = a.byName["text"]
	for i, raw := range strings.Split(src.Text, "\n") {
		a.line = i + 1
		line := stripComment(raw)
		// Peel off leading labels.
		for {
			line = strings.TrimSpace(line)
			colon := labelColon(line)
			if colon < 0 {
				break
			}
			a.defineLabel(strings.TrimSpace(line[:colon]))
			line = line[colon+1:]
		}
		if line == "" {
			continue
		}
		if line[0] == '.' && !strings.HasPrefix(line, ".L") {
			a.directive(line)
			continue
		}
		a.instruction(line)
	}
}

func (a *assembler) defineLabel(name string) {
	if name == "" {
		a.errorf("empty label")
		return
	}
	if isNumericLabel(name) {
		a.numeric[name] = append(a.numeric[name], numPos{order: a.order, sec: a.cur, off: a.cur.cursor})
		a.order++
		return
	}
	if !validSymbol(name) {
		a.errorf("invalid label %q", name)
		return
	}
	if _, dup := a.labels[name]; dup {
		a.errorf("label %q redefined", name)
		return
	}
	if _, dup := a.equates[name]; dup {
		a.errorf("label %q conflicts with .equ", name)
		return
	}
	a.labels[name] = symPos{sec: a.cur, off: a.cur.cursor}
}

// addItem records an item of the given size at the current cursor.
func (a *assembler) addItem(size uint64, encode func(pc uint64) ([]byte, error)) *item {
	it := &item{src: a.file, line: a.line, sec: a.cur, off: a.cur.cursor, size: size, order: a.order, encode: encode}
	a.order++
	a.items = append(a.items, it)
	a.cur.cursor += size
	return it
}

func (a *assembler) directive(line string) {
	name, rest := splitWord(line)
	switch name {
	case ".text", ".rodata", ".data", ".bss":
		a.cur = a.byName[name[1:]]
	case ".global", ".globl":
		// Symbols are all visible; accepted for compatibility.
	case ".align":
		n, err := a.constExpr(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			a.errorf(".align needs a positive power of two: %v", err)
			return
		}
		pad := (uint64(n) - a.cur.cursor%uint64(n)) % uint64(n)
		if pad > 0 {
			a.emitPad(pad)
		}
	case ".byte":
		a.dataDirective(rest, 1)
	case ".half":
		a.dataDirective(rest, 2)
	case ".word":
		a.dataDirective(rest, 4)
	case ".quad":
		a.dataDirective(rest, 8)
	case ".double":
		vals := splitOperands(rest)
		for _, v := range vals {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				a.errorf(".double: %v", err)
				return
			}
			bits := math.Float64bits(f)
			a.addItem(8, func(uint64) ([]byte, error) {
				var b [8]byte
				putUint(b[:], bits, 8)
				return b[:], nil
			})
		}
	case ".ascii", ".asciz":
		s, err := parseString(rest)
		if err != nil {
			a.errorf("%s: %v", name, err)
			return
		}
		if name == ".asciz" {
			s += "\x00"
		}
		b := []byte(s)
		a.addItem(uint64(len(b)), func(uint64) ([]byte, error) { return b, nil })
	case ".space":
		ops := splitOperands(rest)
		if len(ops) == 0 || len(ops) > 2 {
			a.errorf(".space needs 1 or 2 operands")
			return
		}
		n, err := a.constExpr(ops[0])
		if err != nil || n < 0 {
			a.errorf(".space: bad size: %v", err)
			return
		}
		fill := int64(0)
		if len(ops) == 2 {
			if fill, err = a.constExpr(ops[1]); err != nil {
				a.errorf(".space: bad fill: %v", err)
				return
			}
		}
		size := uint64(n)
		fb := byte(fill)
		a.addItem(size, func(uint64) ([]byte, error) {
			b := make([]byte, size)
			if fb != 0 {
				for i := range b {
					b[i] = fb
				}
			}
			return b, nil
		})
	case ".equ", ".set":
		ops := splitOperands(rest)
		if len(ops) != 2 {
			a.errorf("%s needs name, expr", name)
			return
		}
		sym := strings.TrimSpace(ops[0])
		if !validSymbol(sym) {
			a.errorf("%s: invalid name %q", name, sym)
			return
		}
		v, err := a.constExpr(ops[1])
		if err != nil {
			a.errorf("%s %s: %v", name, sym, err)
			return
		}
		if _, dup := a.labels[sym]; dup {
			a.errorf("%s: %q already defined as a label", name, sym)
			return
		}
		a.equates[sym] = v
	default:
		a.errorf("unknown directive %s", name)
	}
}

// dataDirective emits one item per expression of the given width. The
// expressions are evaluated in pass 2, so they may reference labels.
func (a *assembler) dataDirective(rest string, width int) {
	for _, opRaw := range splitOperands(rest) {
		op := strings.TrimSpace(opRaw)
		it := a.addItem(uint64(width), nil)
		it.encode = func(uint64) ([]byte, error) {
			v, err := a.eval(op, it)
			if err != nil {
				return nil, err
			}
			b := make([]byte, width)
			putUint(b, uint64(v), width)
			return b, nil
		}
	}
}

// emitPad pads the current section. Text is padded with NOPs so the pad
// stays decodable; other sections use zeros.
func (a *assembler) emitPad(pad uint64) {
	isText := a.cur.name == "text"
	a.addItem(pad, func(uint64) ([]byte, error) {
		b := make([]byte, pad)
		if isText {
			if pad%4 != 0 {
				return nil, fmt.Errorf("text alignment pad %d not a multiple of 4", pad)
			}
			for i := uint64(0); i < pad; i += 4 {
				nop, _ := isa.Instruction{Op: isa.OpNOP}.Encode(nil)
				copy(b[i:], nop)
			}
		}
		return b, nil
	})
}

// constExpr evaluates an expression that must be resolvable during pass 1
// (integer literals and previously defined equates only).
func (a *assembler) constExpr(src string) (int64, error) {
	return evalExpr(strings.TrimSpace(src), func(name string) (int64, bool) {
		v, ok := a.equates[name]
		return v, ok
	})
}

// eval evaluates an expression in pass 2, when all labels are placed. it
// provides the reference point for numeric local labels.
func (a *assembler) eval(src string, it *item) (int64, error) {
	return evalExpr(strings.TrimSpace(src), func(name string) (int64, bool) {
		if v, ok := a.equates[name]; ok {
			return v, ok
		}
		if pos, ok := a.labels[name]; ok {
			return int64(pos.sec.base + pos.off), true
		}
		if len(name) >= 2 {
			suffix := name[len(name)-1]
			digits := name[:len(name)-1]
			if (suffix == 'b' || suffix == 'f') && isNumericLabel(digits) {
				if pos, ok := a.findNumeric(digits, suffix == 'f', it.order); ok {
					return int64(pos.sec.base + pos.off), true
				}
			}
		}
		return 0, false
	})
}

func (a *assembler) findNumeric(digits string, forward bool, order int) (numPos, bool) {
	list := a.numeric[digits]
	if forward {
		for _, p := range list {
			if p.order > order {
				return p, true
			}
		}
		return numPos{}, false
	}
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].order < order {
			return list[i], true
		}
	}
	return numPos{}, false
}

// layout assigns section base addresses: text at TextBase, each later
// section at the next 4 KiB boundary.
func (a *assembler) layout() {
	addr := a.opts.TextBase
	for _, sec := range a.sections {
		sec.base = addr
		addr = alignUp(addr+sec.cursor, 4096) + image.DefaultDataGap
		addr = alignUp(addr, 4096)
	}
}

// pass2 encodes every item and builds the image.
func (a *assembler) pass2() (*image.Image, error) {
	for _, sec := range a.sections {
		if !sec.noData {
			sec.buf = make([]byte, sec.cursor)
		}
	}
	for _, it := range a.items {
		if it.sec.noData {
			if it.encode != nil {
				// .bss accepts only .space/.align; verify the bytes are zero.
				b, err := it.encode(0)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", it.src, it.line, err)
				}
				for _, c := range b {
					if c != 0 {
						return nil, fmt.Errorf("%s:%d: .bss cannot hold data", it.src, it.line)
					}
				}
			}
			continue
		}
		if it.encode == nil {
			return nil, fmt.Errorf("%s:%d: internal: item without encoder", it.src, it.line)
		}
		pc := it.sec.base + it.off
		b, err := it.encode(pc)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", it.src, it.line, err)
		}
		if uint64(len(b)) != it.size {
			return nil, fmt.Errorf("%s:%d: internal: size changed between passes (%d -> %d)", it.src, it.line, it.size, len(b))
		}
		copy(it.sec.buf[it.off:], b)
	}

	im := image.New()
	for _, sec := range a.sections {
		if sec.cursor == 0 {
			continue
		}
		seg := image.Segment{Name: sec.name, Addr: sec.base, MemSize: sec.cursor, Writable: sec.writable}
		if !sec.noData {
			seg.Data = sec.buf
		}
		if err := im.AddSegment(seg); err != nil {
			return nil, err
		}
	}
	// Label names are substrings of the source text; clone them so a
	// retained image does not pin every source it was assembled from.
	for name, pos := range a.labels {
		im.Symbols[strings.Clone(name)] = pos.sec.base + pos.off
	}
	if entry, ok := im.Symbols["_start"]; ok {
		im.Entry = entry
	} else {
		im.Entry = a.opts.TextBase
	}
	return im, nil
}

func alignUp(v, n uint64) uint64 { return (v + n - 1) &^ (n - 1) }

func putUint(b []byte, v uint64, width int) {
	for i := 0; i < width; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// stripComment removes ; # and // comments, respecting string literals.
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch {
		case c == '"':
			inStr = true
		case c == '#' || c == ';':
			return line[:i]
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		}
	}
	return line
}

// labelColon returns the index of a label-terminating colon at the start of
// the line, or -1.
func labelColon(line string) int {
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == ':' {
			return i
		}
		if !(isSymChar(c) || c == ' ' && strings.TrimSpace(line[:i]) == "") {
			return -1
		}
	}
	return -1
}

func isNumericLabel(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func validSymbol(s string) bool {
	if s == "" || !isSymStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isSymChar(s[i]) {
			return false
		}
	}
	return true
}

func splitWord(line string) (word, rest string) {
	line = strings.TrimSpace(line)
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' || line[i] == '\t' {
			return line[:i], strings.TrimSpace(line[i:])
		}
	}
	return line, ""
}

// splitOperands splits on top-level commas (outside quotes and parens).
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth, start := 0, 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func parseString(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	return unescape(s[1 : len(s)-1])
}
