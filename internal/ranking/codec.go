package ranking

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"

	"repro/internal/guard"
)

// The text codec represents one partial ranking per line. Buckets are
// separated by "|" (best bucket first); elements within a bucket are
// separated by whitespace. Blank lines and lines starting with '#' are
// ignored. Element names are interned into a Domain, so several rankings
// read through one Domain share IDs. Every ranking in a file must mention
// exactly the same element set (partial rankings in the paper share a fixed
// domain D).
//
// ParseText and ParseLines are the strict entry points: the first defect is
// an error. ParseLinesWith (hardened.go) adds admission limits and lenient
// parsing with deterministic repair, for corpora that cannot be trusted.

// token is one element name with the 1-based byte column it starts at, kept
// so defect reports can point into the offending line.
type token struct {
	name string
	col  int
}

// lineParser is the scratch one parse reuses for every line: the line's
// tokens with the end of each bucket's run, and, for ParseLinesWith, a mark
// per domain ID (the line that last named it and where) that finds repeated
// names without a map.
type lineParser struct {
	toks  []token
	ends  []int // ends[b]: index past bucket b's last token in toks
	ids   []int // the line's IDs, in token order
	marks []mark
}

type mark struct{ line, col int }

// tokenize splits a text-codec line into p.toks and p.ends in one pass. Names
// are split on unicode whitespace as strings.Fields splits them, decoding a
// rune only at bytes >= utf8.RuneSelf; '|' never occurs inside a UTF-8
// sequence, so it always ends a bucket. The only structural defect found here
// is an empty bucket, reported as the 1-based column where it starts.
func (p *lineParser) tokenize(line string) (emptyAt int) {
	p.toks, p.ends = p.toks[:0], p.ends[:0]
	// Where the current bucket starts (byte offset and first token) and
	// where the current name starts (byte offset, -1 between names).
	bucket, first, name := 0, 0, -1
	for i := 0; i <= len(line); {
		c, w, space := rune('|'), 1, false // the line's end closes its last bucket
		if i < len(line) {
			c = rune(line[i])
			if c < utf8.RuneSelf {
				space = c == ' ' || '\t' <= c && c <= '\r'
			} else {
				c, w = utf8.DecodeRuneInString(line[i:])
				space = unicode.IsSpace(c)
			}
		}
		if c == '|' || space {
			if name >= 0 {
				p.toks = append(p.toks, token{name: line[name:i], col: name + 1})
				name = -1
			}
			if c == '|' {
				if len(p.toks) == first {
					return bucket + 1
				}
				p.ends = append(p.ends, len(p.toks))
				bucket, first = i+1, len(p.toks)
			}
		} else if name < 0 {
			name = i
		}
		i += w
	}
	return 0
}

// buckets cuts elems, the line's IDs in token order, into its buckets as
// cap-limited subslices; IDs past the line's last token form one more,
// bottom, bucket.
func (p *lineParser) buckets(elems []int) [][]int {
	out := make([][]int, 0, len(p.ends)+1)
	start := 0
	for _, end := range p.ends {
		out = append(out, elems[start:end:end])
		start = end
	}
	if start < len(elems) {
		out = append(out, elems[start:len(elems):len(elems)])
	}
	return out
}

// ParseText parses a single ranking line ("a b | c | d e") against dom,
// interning any new names. The ranking's domain size is dom.Size() after
// interning, so callers parsing several rankings over one shared domain
// should parse all lines with ParseLines instead, which validates that every
// line covers the same element set.
//
// A failed parse leaves dom unchanged: names interned while reading the line
// are rolled back before the error is returned, so a rejected line never
// pollutes a shared domain.
func ParseText(dom *Domain, line string) (*PartialRanking, error) {
	var p lineParser
	if p.tokenize(line) > 0 {
		return nil, fmt.Errorf("ranking: empty bucket in %q", line)
	}
	before := dom.Size()
	elems := make([]int, len(p.toks))
	for i, tok := range p.toks {
		elems[i] = dom.Intern(tok.name)
	}
	pr, err := fromOwnedBuckets(dom.Size(), p.buckets(elems))
	if err != nil {
		dom.truncate(before)
		return nil, err
	}
	return pr, nil
}

// ParseLines reads rankings from r, one per line in the text codec, all over
// one shared domain. It returns the rankings and the interned domain. Every
// line must cover exactly the same set of element names; the first line
// fixes the domain. The first malformed line aborts the parse with an error
// naming its physical line (and column where known); reader failures,
// including a line longer than the 16 MiB cap, are likewise wrapped with the
// line number at which they occurred. Use ParseLinesWith for admission
// limits and lenient parsing.
func ParseLines(r io.Reader) ([]*PartialRanking, *Domain, error) {
	rs, dom, _, err := ParseLinesWith(r, ParseOptions{
		Limits: guard.Limits{MaxLineBytes: 16 << 20},
	})
	if err != nil {
		return nil, nil, err
	}
	return rs, dom, nil
}

// WriteLines writes rankings to w in the text codec using dom's names.
func WriteLines(w io.Writer, dom *Domain, rankings []*PartialRanking) error {
	bw := bufio.NewWriter(w)
	for _, pr := range rankings {
		if _, err := bw.WriteString(dom.Render(pr)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// rankingJSON is the wire form of a partial ranking: the domain size and the
// bucket partition, best bucket first.
type rankingJSON struct {
	N       int     `json:"n"`
	Buckets [][]int `json:"buckets"`
}

// MarshalJSON encodes the ranking as {"n": ..., "buckets": [[...], ...]}.
func (pr *PartialRanking) MarshalJSON() ([]byte, error) {
	return json.Marshal(rankingJSON{N: pr.n, Buckets: pr.buckets})
}

// UnmarshalJSON decodes and validates the wire form produced by MarshalJSON.
func (pr *PartialRanking) UnmarshalJSON(data []byte) error {
	var w rankingJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	built, err := FromBuckets(w.N, w.Buckets)
	if err != nil {
		return err
	}
	// Field-wise rebind rather than a struct copy: the fingerprint memo is an
	// atomic and must be reset, not copied, now that the content changed.
	pr.n = built.n
	pr.buckets = built.buckets
	pr.bucketOf = built.bucketOf
	pr.pos2 = built.pos2
	pr.fp.Store(nil)
	return nil
}
