package ranking

import "fmt"

// Domain interns human-readable element names onto the dense integer IDs the
// library uses internally. The database and CLI layers present rankings over
// named items (restaurants, flights, documents); everything below the codec
// works with IDs.
type Domain struct {
	names []string
	index map[string]int
}

// NewDomain creates an empty domain.
func NewDomain() *Domain {
	return &Domain{index: make(map[string]int)}
}

// DomainOf creates a domain holding exactly the given names, in order.
// Duplicate names are an error.
func DomainOf(names ...string) (*Domain, error) {
	d := NewDomain()
	for _, name := range names {
		if _, dup := d.index[name]; dup {
			return nil, fmt.Errorf("ranking: duplicate domain name %q", name)
		}
		d.index[name] = len(d.names)
		d.names = append(d.names, name)
	}
	return d, nil
}

// MustDomainOf is DomainOf that panics on duplicates.
func MustDomainOf(names ...string) *Domain {
	d, err := DomainOf(names...)
	if err != nil {
		panic(err)
	}
	return d
}

// Intern returns the ID for name, assigning the next free ID on first use.
func (d *Domain) Intern(name string) int {
	if id, ok := d.index[name]; ok {
		return id
	}
	id := len(d.names)
	d.index[name] = id
	d.names = append(d.names, name)
	return id
}

// reserve sizes an empty domain's tables for n names, so a parse does not
// grow them name by name while its first line fixes the domain.
func (d *Domain) reserve(n int) {
	if len(d.names) == 0 && cap(d.names) < n {
		d.names = make([]string, 0, n)
		d.index = make(map[string]int, n)
	}
}

// truncate rolls the domain back to its first size names, forgetting every
// name interned after that point. The codec uses it to undo the interning of
// a line that failed validation, so a rejected parse leaves the shared
// domain exactly as it found it.
func (d *Domain) truncate(size int) {
	if size < 0 || size >= len(d.names) {
		return
	}
	for _, name := range d.names[size:] {
		delete(d.index, name)
	}
	d.names = d.names[:size]
}

// ID returns the ID for name and whether it is known.
func (d *Domain) ID(name string) (int, bool) {
	id, ok := d.index[name]
	return id, ok
}

// Name returns the name for an ID. It panics if the ID is out of range.
func (d *Domain) Name(id int) string { return d.names[id] }

// Size returns the number of interned names.
func (d *Domain) Size() int { return len(d.names) }

// Names returns a copy of all names in ID order.
func (d *Domain) Names() []string { return append([]string(nil), d.names...) }

// Render formats a partial ranking using the domain's names in the text
// codec format ("a b | c | d").
func (d *Domain) Render(pr *PartialRanking) string {
	if pr.N() > d.Size() {
		return pr.String()
	}
	out := make([]byte, 0, 4*pr.N())
	for bi := 0; bi < pr.NumBuckets(); bi++ {
		if bi > 0 {
			out = append(out, ' ', '|', ' ')
		}
		for ei, e := range pr.Bucket(bi) {
			if ei > 0 {
				out = append(out, ' ')
			}
			out = append(out, d.names[e]...)
		}
	}
	return string(out)
}
