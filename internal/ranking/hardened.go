package ranking

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/guard"
	"repro/internal/telemetry"
)

// Ingestion telemetry. The parsed-lines counter is gated like every hot-path
// instrument; drops and repairs are force-counted because a corpus that
// needed repair is an operational fact worth counting even when tracing is
// off.
var (
	tLinesParsed   = telemetry.GetCounter("ranking.parse.lines")
	tLinesDropped  = telemetry.GetCounter("ranking.parse.lines_dropped")
	tLinesRepaired = telemetry.GetCounter("ranking.parse.lines_repaired")
)

// ParseOptions configures ParseLinesWith. The zero value is the historical
// strict parse with no admission limits.
type ParseOptions struct {
	// Limits bounds what the parser will admit; zero fields are unlimited.
	Limits guard.Limits
	// Lenient, when set, turns per-line defects into ErrorList entries and
	// keeps parsing; the result is the repaired ensemble. When unset the
	// first defect aborts the parse with an error.
	Lenient bool
	// Repair selects the lenient-mode repair for lines that cover a strict
	// subset of the domain: DropLine discards them, CompleteBottom appends
	// the missing elements as one trailing bottom bucket (the paper's
	// Section 2 top-list convention). Lines malformed in any other way are
	// always dropped.
	Repair guard.RepairPolicy
}

// ParseLinesWith reads rankings from r, one per line in the text codec, all
// over one shared domain, under the given admission limits and parse mode.
//
// In strict mode it behaves like ParseLines: the first defect aborts with an
// error naming the physical line and, where known, the column; the report is
// empty. In lenient mode every defective line becomes one guard.Defect in
// the returned report (capped at Limits.MaxDefects), the line is repaired or
// dropped deterministically per opts.Repair, and the call succeeds with
// whatever survived — a corrupted corpus yields a usable ensemble plus a
// defect report instead of one opaque error. The repaired ensemble always
// re-parses strictly with zero defects.
//
// Reader failures (I/O errors mid-stream) are fatal in both modes, wrapped
// with the line number at which they occurred. Lines longer than
// Limits.MaxLineBytes are a defect in lenient mode and an error wrapping
// bufio.ErrTooLong in strict mode; either way the parser knows where it was.
func ParseLinesWith(r io.Reader, opts ParseOptions) ([]*PartialRanking, *Domain, *guard.ErrorList, error) {
	dom := NewDomain()
	report := guard.NewErrorList(opts.Limits.DefectCap())
	var out []*PartialRanking
	lr := newLineReader(r, opts.Limits.MaxLineBytes)
	var p lineParser
	firstN := -1 // domain size fixed by the first kept ranking
	for {
		line, lineNo, tooLong, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ranking: line %d: %w", lineNo, err)
		}
		if tooLong {
			if !opts.Lenient {
				return nil, nil, nil, fmt.Errorf("ranking: line %d: %w", lineNo, bufio.ErrTooLong)
			}
			tLinesDropped.ForceInc()
			report.Addf(lineNo, 0, "line exceeds %d bytes; dropped", opts.Limits.MaxLineBytes)
			continue
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		tLinesParsed.Inc()
		if !opts.Limits.RankingsOK(len(out) + 1) {
			if !opts.Lenient {
				return nil, nil, nil, fmt.Errorf("ranking: line %d: ranking count exceeds limit %d", lineNo, opts.Limits.MaxRankings)
			}
			tLinesDropped.ForceInc()
			report.Addf(lineNo, 0, "ranking limit %d reached; remaining input dropped", opts.Limits.MaxRankings)
			break
		}
		pr, d := p.parse(dom, trimmed, lineNo, firstN, opts)
		if d != nil {
			if !opts.Lenient {
				return nil, nil, nil, fmt.Errorf("ranking: %s", d.String())
			}
			report.Add(*d)
			if pr == nil {
				tLinesDropped.ForceInc()
				continue
			}
			tLinesRepaired.ForceInc()
		}
		if firstN < 0 {
			firstN = dom.Size()
		}
		out = append(out, pr)
	}
	return out, dom, report, nil
}

// parse parses one trimmed, non-comment line against the shared domain under
// the admission limits. It returns the parsed (possibly repaired) ranking
// and/or a defect:
//
//	pr != nil, d == nil: clean line
//	pr != nil, d != nil: repaired line (lenient CompleteBottom); d.Repaired set
//	pr == nil, d != nil: defective line, dropped; the domain is rolled back
//
// firstN < 0 means no ranking has fixed the domain yet, so this line is the
// candidate domain-fixer. The checks run in a fixed order: empty bucket,
// bucket limit, first repeated name in line order, first name outside the
// fixed domain, element limit, coverage. A kept line's IDs, its completed
// bottom bucket included, are copied into one array that the ranking keeps
// as cap-limited bucket subslices; the rest is scratch reused across lines.
func (p *lineParser) parse(dom *Domain, line string, lineNo, firstN int, opts ParseOptions) (*PartialRanking, *guard.Defect) {
	if emptyAt := p.tokenize(line); emptyAt > 0 {
		return nil, &guard.Defect{Line: lineNo, Col: emptyAt, Msg: "empty bucket"}
	}
	if !opts.Limits.BucketsOK(len(p.ends)) {
		return nil, &guard.Defect{Line: lineNo, Msg: fmt.Sprintf("ranking has %d buckets, limit %d", len(p.ends), opts.Limits.MaxBuckets)}
	}
	dom.reserve(len(p.toks))
	before := dom.Size()
	firstNew := -1 // index in p.toks of the first name new to the domain
	p.ids = p.ids[:0]
	for ti, tok := range p.toks {
		id := dom.Intern(tok.name)
		if id == len(p.marks) {
			p.marks = append(p.marks, mark{})
		}
		// Physical line numbers are positive and never repeat, so a zero or
		// stale mark (an ID a dropped line interned) never matches.
		m := &p.marks[id]
		if m.line == lineNo {
			dom.truncate(before)
			return nil, &guard.Defect{Line: lineNo, Col: tok.col, Msg: fmt.Sprintf("element %q already appeared at col %d", tok.name, m.col)}
		}
		*m = mark{line: lineNo, col: tok.col}
		if id >= before && firstNew < 0 {
			firstNew = ti
		}
		p.ids = append(p.ids, id)
	}
	if firstN >= 0 && dom.Size() > firstN {
		dom.truncate(before)
		tok := p.toks[firstNew]
		return nil, &guard.Defect{Line: lineNo, Col: tok.col, Msg: fmt.Sprintf("element %q not in the first ranking's domain", tok.name)}
	}
	if !opts.Limits.ElementsOK(dom.Size()) {
		dom.truncate(before)
		return nil, &guard.Defect{Line: lineNo, Msg: fmt.Sprintf("domain exceeds %d elements", opts.Limits.MaxElements)}
	}
	n, total := dom.Size(), len(p.ids)
	if total < n && (!opts.Lenient || opts.Repair != guard.CompleteBottom) {
		// The line covers a strict subset of the fixed domain.
		return nil, &guard.Defect{Line: lineNo, Msg: fmt.Sprintf("covers %d of %d domain elements", total, n)}
	}
	elems := append(make([]int, 0, n), p.ids...)
	var repaired *guard.Defect
	if total < n {
		for id := 0; id < n; id++ {
			if p.marks[id].line != lineNo {
				elems = append(elems, id)
			}
		}
		repaired = &guard.Defect{
			Line:     lineNo,
			Msg:      fmt.Sprintf("covers %d of %d domain elements; completed %d missing into a bottom bucket", total, n, n-total),
			Repaired: true,
		}
	}
	pr, err := fromOwnedBuckets(n, p.buckets(elems))
	if err != nil {
		// Unreachable in practice: duplicates, coverage, and range defects
		// are all caught above. Kept as a belt for future codec changes.
		dom.truncate(before)
		return nil, &guard.Defect{Line: lineNo, Msg: err.Error()}
	}
	return pr, repaired
}

// lineReader yields physical lines without their terminators, discarding the
// remainder of lines longer than max bytes so parsing can resume at the next
// line — the recovery bufio.Scanner cannot do (ErrTooLong is sticky).
type lineReader struct {
	br     *bufio.Reader
	max    int
	lineNo int
}

func newLineReader(r io.Reader, max int) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 64*1024), max: max}
}

// next returns the next line and its 1-based number. tooLong reports a line
// over the byte cap (the line content is discarded). err is io.EOF at end of
// input, or the underlying reader's error.
func (lr *lineReader) next() (line string, lineNo int, tooLong bool, err error) {
	lr.lineNo++
	var buf []byte // a line longer than the reader's buffer, so far
	for {
		frag, ferr := lr.br.ReadSlice('\n')
		if lr.max > 0 && len(buf)+len(frag) > lr.max+1 { // +1 for the newline
			// Too long: consume to end of line without retaining it.
			if derr := lr.discardLine(ferr); derr != nil && derr != io.EOF {
				return "", lr.lineNo, false, derr
			}
			return "", lr.lineNo, true, nil
		}
		if ferr == bufio.ErrBufferFull {
			buf = append(buf, frag...)
			continue
		}
		if buf != nil {
			frag = append(buf, frag...)
		}
		switch ferr {
		case nil:
			return trimEOL(frag), lr.lineNo, false, nil
		case io.EOF:
			if len(frag) == 0 {
				return "", lr.lineNo, false, io.EOF
			}
			return trimEOL(frag), lr.lineNo, false, nil
		default:
			return "", lr.lineNo, false, ferr
		}
	}
}

// discardLine consumes input up to and including the next newline. prevErr
// is the error of the ReadSlice call that overflowed, so a line that hit the
// cap and EOF simultaneously is not re-read.
func (lr *lineReader) discardLine(prevErr error) error {
	for {
		switch prevErr {
		case nil:
			return nil // the overflowing fragment ended at the newline
		case bufio.ErrBufferFull:
			_, prevErr = lr.br.ReadSlice('\n')
		default:
			return prevErr
		}
	}
}

// trimEOL strips one trailing "\n" or "\r\n".
func trimEOL(b []byte) string {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n := len(b); n > 0 && b[n-1] == '\r' {
			b = b[:n-1]
		}
	}
	return string(b)
}
