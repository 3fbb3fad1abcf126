package ranking

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/guard"
)

// This file keeps the text codec's original line parser as the reference
// the differential fuzzers compare ParseLinesWith and ParseText against. It
// builds a seen map per line, a token slice and an ID slice per bucket, and
// copies every bucket again in FromBuckets; its answers, domains, defects
// and error strings are the contract. Telemetry is left out.

// refParseLinesWith is ParseLinesWith as a map-per-line parser.
func refParseLinesWith(r io.Reader, opts ParseOptions) ([]*PartialRanking, *Domain, *guard.ErrorList, error) {
	dom := NewDomain()
	report := guard.NewErrorList(opts.Limits.DefectCap())
	var out []*PartialRanking
	lr := newLineReader(r, opts.Limits.MaxLineBytes)
	firstN := -1
	for {
		line, lineNo, tooLong, err := refNextLine(lr)
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
			report.Addf(lineNo, 0, "line exceeds %d bytes; dropped", opts.Limits.MaxLineBytes)
			continue
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if !opts.Limits.RankingsOK(len(out) + 1) {
			if !opts.Lenient {
				return nil, nil, nil, fmt.Errorf("ranking: line %d: ranking count exceeds limit %d", lineNo, opts.Limits.MaxRankings)
			}
			report.Addf(lineNo, 0, "ranking limit %d reached; remaining input dropped", opts.Limits.MaxRankings)
			break
		}
		pr, d := refParseGuardedLine(dom, trimmed, lineNo, firstN, opts)
		if d != nil {
			if !opts.Lenient {
				return nil, nil, nil, fmt.Errorf("ranking: %s", d.String())
			}
			report.Add(*d)
			if pr == nil {
				continue
			}
		}
		if firstN < 0 {
			firstN = dom.Size()
		}
		out = append(out, pr)
	}
	return out, dom, report, nil
}

// refNextLine is lineReader.next as it copied every line into a fresh
// slice before converting it to a string.
func refNextLine(lr *lineReader) (line string, lineNo int, tooLong bool, err error) {
	lr.lineNo++
	var buf []byte
	for {
		frag, ferr := lr.br.ReadSlice('\n')
		if lr.max > 0 && len(buf)+len(frag) > lr.max+1 {
			if derr := lr.discardLine(ferr); derr != nil && derr != io.EOF {
				return "", lr.lineNo, false, derr
			}
			return "", lr.lineNo, true, nil
		}
		buf = append(buf, frag...)
		switch ferr {
		case nil:
			return trimEOL(buf), lr.lineNo, false, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(buf) == 0 {
				return "", lr.lineNo, false, io.EOF
			}
			return trimEOL(buf), lr.lineNo, false, nil
		default:
			return "", lr.lineNo, false, ferr
		}
	}
}

// refParseGuardedLine parses one trimmed, non-comment line: a clean line
// returns a ranking, a repaired one a ranking and a Repaired defect, a
// dropped one only a defect, with the domain rolled back.
func refParseGuardedLine(dom *Domain, line string, lineNo, firstN int, opts ParseOptions) (*PartialRanking, *guard.Defect) {
	buckets, emptyAt := refTokenizeLine(line)
	if emptyAt > 0 {
		return nil, &guard.Defect{Line: lineNo, Col: emptyAt, Msg: "empty bucket"}
	}
	if !opts.Limits.BucketsOK(len(buckets)) {
		return nil, &guard.Defect{Line: lineNo, Msg: fmt.Sprintf("ranking has %d buckets, limit %d", len(buckets), opts.Limits.MaxBuckets)}
	}
	before := dom.Size()
	seen := make(map[string]int, 8)
	total := 0
	var firstNew token
	idBuckets := make([][]int, len(buckets))
	for bi, b := range buckets {
		ids := make([]int, 0, len(b))
		for _, tok := range b {
			if col, dup := seen[tok.name]; dup {
				dom.truncate(before)
				return nil, &guard.Defect{Line: lineNo, Col: tok.col, Msg: fmt.Sprintf("element %q already appeared at col %d", tok.name, col)}
			}
			seen[tok.name] = tok.col
			preSize := dom.Size()
			id := dom.Intern(tok.name)
			if id >= preSize && firstNew.name == "" {
				firstNew = tok
			}
			ids = append(ids, id)
			total++
		}
		idBuckets[bi] = ids
	}
	if firstN >= 0 && dom.Size() > firstN {
		dom.truncate(before)
		return nil, &guard.Defect{Line: lineNo, Col: firstNew.col, Msg: fmt.Sprintf("element %q not in the first ranking's domain", firstNew.name)}
	}
	if !opts.Limits.ElementsOK(dom.Size()) {
		dom.truncate(before)
		return nil, &guard.Defect{Line: lineNo, Msg: fmt.Sprintf("domain exceeds %d elements", opts.Limits.MaxElements)}
	}
	n := dom.Size()
	var repaired *guard.Defect
	if total < n {
		if !opts.Lenient || opts.Repair != guard.CompleteBottom {
			return nil, &guard.Defect{Line: lineNo, Msg: fmt.Sprintf("covers %d of %d domain elements", total, n)}
		}
		bottom := make([]int, 0, n-total)
		for id := 0; id < n; id++ {
			if _, ok := seen[dom.Name(id)]; !ok {
				bottom = append(bottom, id)
			}
		}
		idBuckets = append(idBuckets, bottom)
		repaired = &guard.Defect{
			Line:     lineNo,
			Msg:      fmt.Sprintf("covers %d of %d domain elements; completed %d missing into a bottom bucket", total, n, len(bottom)),
			Repaired: true,
		}
	}
	pr, err := FromBuckets(n, idBuckets)
	if err != nil {
		dom.truncate(before)
		return nil, &guard.Defect{Line: lineNo, Msg: err.Error()}
	}
	return pr, repaired
}

// refAppendFields appends seg's whitespace-separated fields to dst, each
// with its column in a line where seg starts at byte offset base.
func refAppendFields(dst []token, seg string, base int) []token {
	i := 0
	for i < len(seg) {
		r, w := utf8.DecodeRuneInString(seg[i:])
		if unicode.IsSpace(r) {
			i += w
			continue
		}
		start := i
		for i < len(seg) {
			r, w := utf8.DecodeRuneInString(seg[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += w
		}
		dst = append(dst, token{name: seg[start:i], col: base + start + 1})
	}
	return dst
}

// refTokenizeLine splits a line at every '|' and each segment into fields,
// or returns the 1-based column where the first empty bucket starts.
func refTokenizeLine(line string) (buckets [][]token, emptyAt int) {
	offset := 0
	rest := line
	for {
		end := len(rest)
		for k := 0; k < len(rest); k++ {
			if rest[k] == '|' {
				end = k
				break
			}
		}
		toks := refAppendFields(nil, rest[:end], offset)
		if len(toks) == 0 {
			return nil, offset + 1
		}
		buckets = append(buckets, toks)
		if end == len(rest) {
			return buckets, 0
		}
		offset += end + 1
		rest = rest[end+1:]
	}
}

// refParseText is ParseText over refTokenizeLine and FromBuckets.
func refParseText(dom *Domain, line string) (*PartialRanking, error) {
	buckets, emptyAt := refTokenizeLine(line)
	if emptyAt > 0 {
		return nil, fmt.Errorf("ranking: empty bucket in %q", line)
	}
	before := dom.Size()
	idBuckets := make([][]int, len(buckets))
	for bi, b := range buckets {
		ids := make([]int, 0, len(b))
		for _, tok := range b {
			ids = append(ids, dom.Intern(tok.name))
		}
		idBuckets[bi] = ids
	}
	pr, err := FromBuckets(dom.Size(), idBuckets)
	if err != nil {
		dom.truncate(before)
		return nil, err
	}
	return pr, nil
}
