// Package rx implements a small regular-expression engine compiled to
// deterministic finite automata over an explicit byte alphabet.
//
// It exists to give the symbolic analyses exact language-theoretic operations
// that backtracking regexp engines cannot provide: intersection, complement,
// emptiness, language equivalence and shortest-witness extraction. These are
// required to compute atomic predicates over the community and AS-path
// regexes appearing in route maps (see internal/atoms) and to generate the
// concrete differential examples shown to users.
//
// The supported syntax is the POSIX-ish subset used by Cisco IOS as-path and
// expanded community lists: literals, '.', character classes '[...]' (with
// ranges and '^' negation), grouping '(...)', alternation '|', and the
// repetitions '*', '+', '?'. Anchors and the '_' boundary metacharacter are
// handled by the caller (internal/atoms) by translating them into ordinary
// alphabet symbols before compilation, so this package treats every pattern
// as a full match over its alphabet.
package rx

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Alphabet is the ordered set of byte symbols an automaton ranges over.
type Alphabet []byte

// Contains reports whether b is a symbol of the alphabet.
func (a Alphabet) Contains(b byte) bool {
	for _, s := range a {
		if s == b {
			return true
		}
	}
	return false
}

// clone returns a sorted copy with duplicates removed.
func (a Alphabet) clone() Alphabet {
	seen := [256]bool{}
	out := make(Alphabet, 0, len(a))
	for _, b := range a {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------- AST ----------

type exprKind int

const (
	exprEmpty exprKind = iota // ε
	exprClass                 // one symbol from a set
	exprConcat
	exprAlt
	exprStar
	exprPlus
	exprOpt
)

type expr struct {
	kind  exprKind
	class [256 / 64]uint64 // symbol bitmap for exprClass
	subs  []*expr
}

func (e *expr) classHas(b byte) bool { return e.class[b/64]>>(b%64)&1 == 1 }
func (e *expr) classAdd(b byte)      { e.class[b/64] |= 1 << (b % 64) }

// ---------- Parser ----------

type parser struct {
	pat string
	pos int
}

// SyntaxError reports a malformed pattern.
type SyntaxError struct {
	Pattern string
	Pos     int
	Msg     string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("rx: %s at position %d in %q", e.Msg, e.Pos, e.Pattern)
}

func (p *parser) fail(msg string) error {
	return &SyntaxError{Pattern: p.pat, Pos: p.pos, Msg: msg}
}

func (p *parser) peek() (byte, bool) {
	if p.pos >= len(p.pat) {
		return 0, false
	}
	return p.pat[p.pos], true
}

func (p *parser) parseAlt() (*expr, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts := []*expr{first}
	for {
		c, ok := p.peek()
		if !ok || c != '|' {
			break
		}
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return &expr{kind: exprAlt, subs: alts}, nil
}

func (p *parser) parseConcat() (*expr, error) {
	var parts []*expr
	for {
		c, ok := p.peek()
		if !ok || c == '|' || c == ')' {
			break
		}
		atom, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, atom)
	}
	switch len(parts) {
	case 0:
		return &expr{kind: exprEmpty}, nil
	case 1:
		return parts[0], nil
	}
	return &expr{kind: exprConcat, subs: parts}, nil
}

func (p *parser) parseRepeat() (*expr, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		c, ok := p.peek()
		if !ok {
			return atom, nil
		}
		switch c {
		case '*':
			p.pos++
			atom = &expr{kind: exprStar, subs: []*expr{atom}}
		case '+':
			p.pos++
			atom = &expr{kind: exprPlus, subs: []*expr{atom}}
		case '?':
			p.pos++
			atom = &expr{kind: exprOpt, subs: []*expr{atom}}
		default:
			return atom, nil
		}
	}
}

func (p *parser) parseAtom() (*expr, error) {
	c, ok := p.peek()
	if !ok {
		return nil, p.fail("unexpected end of pattern")
	}
	switch c {
	case '(':
		p.pos++
		inner, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if c, ok := p.peek(); !ok || c != ')' {
			return nil, p.fail("missing ')'")
		}
		p.pos++
		return inner, nil
	case ')':
		return nil, p.fail("unexpected ')'")
	case '[':
		return p.parseClass()
	case '*', '+', '?':
		return nil, p.fail("repetition with no operand")
	case '.':
		p.pos++
		e := &expr{kind: exprClass}
		for i := 0; i < 256; i++ {
			e.classAdd(byte(i))
		}
		return e, nil
	case '\\':
		p.pos++
		c, ok := p.peek()
		if !ok {
			return nil, p.fail("trailing backslash")
		}
		p.pos++
		e := &expr{kind: exprClass}
		e.classAdd(c)
		return e, nil
	default:
		p.pos++
		e := &expr{kind: exprClass}
		e.classAdd(c)
		return e, nil
	}
}

func (p *parser) parseClass() (*expr, error) {
	p.pos++ // consume '['
	e := &expr{kind: exprClass}
	negate := false
	if c, ok := p.peek(); ok && c == '^' {
		negate = true
		p.pos++
	}
	seenAny := false
	for {
		c, ok := p.peek()
		if !ok {
			return nil, p.fail("missing ']'")
		}
		if c == ']' && seenAny {
			p.pos++
			break
		}
		p.pos++
		if c == '\\' {
			esc, ok := p.peek()
			if !ok {
				return nil, p.fail("trailing backslash in class")
			}
			p.pos++
			c = esc
		}
		// Range?
		if n, ok := p.peek(); ok && n == '-' && p.pos+1 < len(p.pat) && p.pat[p.pos+1] != ']' {
			p.pos++ // consume '-'
			hi, _ := p.peek()
			p.pos++
			if hi < c {
				return nil, p.fail("invalid class range")
			}
			for b := int(c); b <= int(hi); b++ {
				e.classAdd(byte(b))
			}
		} else {
			e.classAdd(c)
		}
		seenAny = true
	}
	if negate {
		for i := range e.class {
			e.class[i] = ^e.class[i]
		}
	}
	return e, nil
}

// ---------- NFA (Thompson construction) ----------

type nfaState struct {
	eps  []int
	sym  [256 / 64]uint64 // symbols labelling the single out-transition
	next int              // -1 if none
}

type nfa struct {
	states []nfaState
	start  int
	accept int
}

func (n *nfa) add() int {
	n.states = append(n.states, nfaState{next: -1})
	return len(n.states) - 1
}

func buildNFA(e *expr) *nfa {
	n := &nfa{}
	start, accept := n.build(e)
	n.start, n.accept = start, accept
	return n
}

// build returns (start, accept) fragment states.
func (n *nfa) build(e *expr) (int, int) {
	switch e.kind {
	case exprEmpty:
		s := n.add()
		a := n.add()
		n.states[s].eps = append(n.states[s].eps, a)
		return s, a
	case exprClass:
		s := n.add()
		a := n.add()
		n.states[s].sym = e.class
		n.states[s].next = a
		return s, a
	case exprConcat:
		s, a := n.build(e.subs[0])
		for _, sub := range e.subs[1:] {
			s2, a2 := n.build(sub)
			n.states[a].eps = append(n.states[a].eps, s2)
			a = a2
		}
		return s, a
	case exprAlt:
		s := n.add()
		a := n.add()
		for _, sub := range e.subs {
			s2, a2 := n.build(sub)
			n.states[s].eps = append(n.states[s].eps, s2)
			n.states[a2].eps = append(n.states[a2].eps, a)
		}
		return s, a
	case exprStar:
		s := n.add()
		a := n.add()
		s2, a2 := n.build(e.subs[0])
		n.states[s].eps = append(n.states[s].eps, s2, a)
		n.states[a2].eps = append(n.states[a2].eps, s2, a)
		return s, a
	case exprPlus:
		s2, a2 := n.build(e.subs[0])
		a := n.add()
		n.states[a2].eps = append(n.states[a2].eps, s2, a)
		return s2, a
	case exprOpt:
		s := n.add()
		a := n.add()
		s2, a2 := n.build(e.subs[0])
		n.states[s].eps = append(n.states[s].eps, s2, a)
		n.states[a2].eps = append(n.states[a2].eps, a)
		return s, a
	}
	panic("rx: unknown expr kind")
}

// ---------- DFA ----------

// DFA is a total deterministic automaton over a fixed alphabet. State 0 need
// not be the dead state; totality is guaranteed by construction (a dead state
// is materialized whenever needed).
type DFA struct {
	alphabet Alphabet
	symIndex [256]int16 // byte → alphabet index, -1 if outside
	trans    [][]int32  // trans[state][symIdx]
	accept   []bool
	start    int32
}

// NumStates reports the automaton's state count.
func (d *DFA) NumStates() int { return len(d.trans) }

// AlphabetSymbols returns a copy of the automaton's alphabet.
func (d *DFA) AlphabetSymbols() Alphabet { return append(Alphabet(nil), d.alphabet...) }

// Compile parses pattern and compiles it to a minimal DFA over alpha. The
// pattern must match the entire input string (full-match semantics). Symbols
// in the pattern outside the alphabet produce transitions that can never fire
// and therefore an automaton that rejects the corresponding strings.
func Compile(pattern string, alpha Alphabet) (*DFA, error) {
	if len(pattern) > maxPatternLen {
		return nil, fmt.Errorf("rx: pattern of %d bytes is longer than %d", len(pattern), maxPatternLen)
	}
	p := &parser{pat: pattern}
	e, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.pat) {
		return nil, p.fail("unexpected trailing input")
	}
	d, err := determinize(buildNFA(e), alpha.clone())
	if err != nil {
		return nil, fmt.Errorf("rx: %w", err)
	}
	return d.Minimize(), nil
}

// MustCompile is Compile that panics on error; for statically known patterns.
func MustCompile(pattern string, alpha Alphabet) *DFA {
	d, err := Compile(pattern, alpha)
	if err != nil {
		panic(err)
	}
	return d
}

// maxPatternLen, maxNFAStates and maxSubsets bound the work of compiling
// one pattern. Compile rejects a longer pattern before parsing it: an
// as-path line may be a MiB long, and parsing costs memory linear in it.
// The subset construction needs memory quadratic in the NFA's states for
// the ε-closure table and proportional to subsets × NFA states for the
// subsets. The search wrapper .*(…).* around a pattern such as 1 followed
// by k dots discovers about 2^(k+2) subsets, so without a cap one as-path
// line could hold a worker for minutes. The patterns of the cloud and
// campus corpora and of the test suite are at most 69 bytes long and need
// at most 46 NFA states; they and the generated intents need at most 25
// subsets. An alternation of 100 ASNs fits. A construction that reaches
// both state caps takes about 0.15 s and allocates about 60 MiB.
const (
	maxPatternLen = 1 << 13
	maxNFAStates  = 1 << 11
	maxSubsets    = 1 << 15
)

// determinize is the subset construction. Each NFA state's ε-closure is
// computed once, as a bitset; a subset is ⌈n/64⌉ words in one backing slice,
// looked up by its word bytes; transitions go into one flat table. Subsets
// are numbered in discovery order (work-list order, then alphabet order).
// It gives up with an error on an NFA of more than maxNFAStates states or
// past maxSubsets subsets.
func determinize(n *nfa, alpha Alphabet) (*DFA, error) {
	if len(n.states) > maxNFAStates {
		return nil, errPatternTooLong
	}
	d := &DFA{alphabet: alpha}
	for i := range d.symIndex {
		d.symIndex[i] = -1
	}
	for i, b := range alpha {
		d.symIndex[b] = int16(i)
	}
	nsym := len(alpha)
	w := (len(n.states) + 63) / 64

	// closure[s*w:(s+1)*w] is the ε-closure of state s.
	closure := make([]uint64, len(n.states)*w)
	var stack []int
	for s := range n.states {
		c := closure[s*w : (s+1)*w]
		c[s/64] |= 1 << (s % 64)
		for stack = append(stack[:0], s); len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range n.states[u].eps {
				if c[t/64]>>(t%64)&1 == 0 {
					c[t/64] |= 1 << (t % 64)
					stack = append(stack, t)
				}
			}
		}
	}

	var sets []uint64 // subset i is sets[i*w:(i+1)*w]
	var accept []bool
	index := map[string]int32{}
	key := make([]byte, 8*w)
	mk := func(set []uint64) (int32, bool) {
		for i, x := range set {
			binary.LittleEndian.PutUint64(key[8*i:], x)
		}
		if id, ok := index[string(key)]; ok {
			return id, true
		}
		id := int32(len(accept))
		if id == maxSubsets {
			return 0, false
		}
		index[string(key)] = id
		sets = append(sets, set...)
		accept = append(accept, set[n.accept/64]>>(n.accept%64)&1 == 1)
		return id, true
	}
	d.start, _ = mk(closure[n.start*w : (n.start+1)*w])
	// next[ai*w:(ai+1)*w] collects the successor subset on symbol alpha[ai].
	next := make([]uint64, nsym*w)
	var flat []int32
	for work := 0; work < len(accept); work++ {
		clear(next)
		for wi, word := range sets[work*w : (work+1)*w] {
			for ; word != 0; word &= word - 1 {
				st := &n.states[wi*64+bits.TrailingZeros64(word)]
				if st.next < 0 {
					continue
				}
				c := closure[st.next*w : (st.next+1)*w]
				for ai, b := range alpha {
					if st.sym[b/64]>>(b%64)&1 == 1 {
						row := next[ai*w : (ai+1)*w]
						for i := range row {
							row[i] |= c[i]
						}
					}
				}
			}
		}
		for ai := 0; ai < nsym; ai++ {
			id, ok := mk(next[ai*w : (ai+1)*w])
			if !ok {
				return nil, errTooManyStates
			}
			flat = append(flat, id)
		}
	}
	d.trans, d.accept = rows(flat, nsym), accept
	return d, nil
}

var (
	errPatternTooLong = fmt.Errorf("pattern needs more than %d NFA states", maxNFAStates)
	errTooManyStates  = fmt.Errorf("automaton would exceed %d states", maxSubsets)
)

// Matches reports whether the automaton accepts s in full. Any byte of s
// outside the alphabet causes a rejection.
func (d *DFA) Matches(s string) bool {
	st := d.start
	for i := 0; i < len(s); i++ {
		si := d.symIndex[s[i]]
		if si < 0 {
			return false
		}
		st = d.trans[st][si]
	}
	return d.accept[st]
}

// IsEmpty reports whether the accepted language is empty.
func (d *DFA) IsEmpty() bool {
	_, ok := d.ShortestString()
	return !ok
}

// ShortestString returns a shortest accepted string via BFS; ok is false when
// the language is empty.
func (d *DFA) ShortestString() (string, bool) {
	type prev struct {
		state int32
		sym   byte
	}
	back := make(map[int32]prev)
	visited := make([]bool, len(d.trans))
	queue := []int32{d.start}
	visited[d.start] = true
	var goal int32 = -1
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if d.accept[s] {
			goal = s
			break
		}
		for ai, b := range d.alphabet {
			t := d.trans[s][ai]
			if !visited[t] {
				visited[t] = true
				back[t] = prev{state: s, sym: b}
				queue = append(queue, t)
			}
		}
	}
	if goal < 0 {
		return "", false
	}
	var rev []byte
	for s := goal; s != d.start; {
		p := back[s]
		rev = append(rev, p.sym)
		s = p.state
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return string(rev), true
}

// sameAlphabet panics unless the two automata range over identical alphabets;
// product constructions are only defined there.
func (d *DFA) sameAlphabet(o *DFA) {
	if len(d.alphabet) != len(o.alphabet) {
		panic("rx: alphabet mismatch")
	}
	for i := range d.alphabet {
		if d.alphabet[i] != o.alphabet[i] {
			panic("rx: alphabet mismatch")
		}
	}
}

func (d *DFA) product(o *DFA, acc func(a, b bool) bool) *DFA {
	return d.productRaw(o, acc).Minimize()
}

// productRaw builds the reachable part of the product automaton without
// minimizing it. Pair (a, b) is indexed as a*|o|+b into a dense slot table
// (the operands are small, so the table is cheaper than hashing pairs), and
// the rows of the result share one backing array.
func (d *DFA) productRaw(o *DFA, acc func(a, b bool) bool) *DFA {
	d.sameAlphabet(o)
	nsym := len(d.alphabet)
	nb := len(o.trans)
	// slot[a*nb+b] is 1 + the product state of pair (a, b), or 0 if unseen.
	slot := make([]int32, len(d.trans)*nb)
	guess := len(d.trans) + nb     // capacity hint for the reachable pair count
	pairs := make([]int, 0, guess) // discovered pairs a*nb+b, in state order
	accept := make([]bool, 0, guess)
	mk := func(a, b int32) int32 {
		k := int(a)*nb + int(b)
		if id := slot[k]; id != 0 {
			return id - 1
		}
		id := int32(len(pairs))
		slot[k] = id + 1
		pairs = append(pairs, k)
		accept = append(accept, acc(d.accept[a], o.accept[b]))
		return id
	}
	start := mk(d.start, o.start)
	flat := make([]int32, 0, guess*nsym)
	for w := 0; w < len(pairs); w++ {
		ra, rb := d.trans[pairs[w]/nb], o.trans[pairs[w]%nb]
		for ai := 0; ai < nsym; ai++ {
			flat = append(flat, mk(ra[ai], rb[ai]))
		}
	}
	return &DFA{alphabet: d.alphabet, symIndex: d.symIndex, trans: rows(flat, nsym), accept: accept, start: start}
}

// rows slices a flat transition table into per-state rows of width nsym.
func rows(flat []int32, nsym int) [][]int32 {
	out := make([][]int32, len(flat)/nsym)
	for i := range out {
		out[i] = flat[i*nsym : (i+1)*nsym : (i+1)*nsym]
	}
	return out
}

// Intersect returns an automaton for L(d) ∩ L(o).
func (d *DFA) Intersect(o *DFA) *DFA { return d.product(o, func(a, b bool) bool { return a && b }) }

// Union returns an automaton for L(d) ∪ L(o).
func (d *DFA) Union(o *DFA) *DFA { return d.product(o, func(a, b bool) bool { return a || b }) }

// Minus returns an automaton for L(d) \ L(o).
func (d *DFA) Minus(o *DFA) *DFA { return d.product(o, func(a, b bool) bool { return a && !b }) }

// Complement returns an automaton for Σ* \ L(d) over d's alphabet.
func (d *DFA) Complement() *DFA {
	out := &DFA{
		alphabet: d.alphabet,
		symIndex: d.symIndex,
		trans:    d.trans, // transitions shared; accept flags flipped
		accept:   make([]bool, len(d.accept)),
		start:    d.start,
	}
	for i, a := range d.accept {
		out.accept[i] = !a
	}
	return out.Minimize()
}

// Equal reports language equality.
func (d *DFA) Equal(o *DFA) bool {
	return d.Minus(o).IsEmpty() && o.Minus(d).IsEmpty()
}

// Subset reports whether L(d) ⊆ L(o).
func (d *DFA) Subset(o *DFA) bool { return d.Minus(o).IsEmpty() }

// Meets reports whether L(d) ∩ L(o) is non-empty. It searches the state
// pairs reachable in the product, stops at the first pair both accept and
// builds no automaton; visited pairs are bits at a*|o|+b, as in productRaw.
func (d *DFA) Meets(o *DFA) bool {
	d.sameAlphabet(o)
	nb := len(o.trans)
	seen := make([]uint64, (len(d.trans)*nb+63)/64)
	k := int(d.start)*nb + int(o.start)
	seen[k/64] |= 1 << (k % 64)
	for stack := []int{k}; len(stack) > 0; {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a, b := k/nb, k%nb
		if d.accept[a] && o.accept[b] {
			return true
		}
		rb := o.trans[b]
		for ai, ta := range d.trans[a] {
			k := int(ta)*nb + int(rb[ai])
			if seen[k/64]>>(k%64)&1 == 0 {
				seen[k/64] |= 1 << (k % 64)
				stack = append(stack, k)
			}
		}
	}
	return false
}

// Minimize returns the Moore-minimized automaton (reachable states only).
// Blocks are numbered in order of their lowest reachable state, so equal
// inputs always minimize to identical automata.
func (d *DFA) Minimize() *DFA {
	nsym := len(d.alphabet)
	ns := len(d.trans)
	// Reachability.
	reach := make([]bool, ns)
	queue := make([]int32, 1, ns)
	queue[0] = d.start
	reach[d.start] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range d.trans[s] {
			if !reach[t] {
				reach[t] = true
				queue = append(queue, t)
			}
		}
	}
	// Initial partition: accept vs non-accept.
	part := make([]int32, ns)
	for i := range part {
		if d.accept[i] {
			part[i] = 1
		}
	}
	numBlocks := int32(2)
	// Each refinement round distinguishes states by their signature
	// (current block, successor blocks). Signatures are hashed into an
	// open-addressing table whose slots hold 1 + a block id; a hash match
	// is confirmed against the block's first state, and a collision probes
	// on to the next slot.
	size := 1
	for size < 2*ns {
		size <<= 1
	}
	table := make([]int32, size)
	next := make([]int32, ns)
	var rep []int32   // rep[b] is the first state placed in block b
	var hash []uint64 // hash[b] is block b's signature hash
	sameSig := func(s, t int32) bool {
		if part[s] != part[t] {
			return false
		}
		rs, rt := d.trans[s], d.trans[t]
		for ai := range rs {
			if part[rs[ai]] != part[rt[ai]] {
				return false
			}
		}
		return true
	}
	for {
		clear(table)
		rep, hash = rep[:0], hash[:0]
		for s := int32(0); int(s) < ns; s++ {
			if !reach[s] {
				continue
			}
			h := fnvOffset ^ uint64(part[s])
			for _, t := range d.trans[s] {
				h = (h ^ uint64(part[t])) * fnvPrime
			}
			i := int(mix(h)) & (size - 1)
			for {
				b := table[i] - 1
				if b < 0 {
					b = int32(len(rep))
					table[i] = b + 1
					rep = append(rep, s)
					hash = append(hash, h)
				} else if hash[b] != h || !sameSig(rep[b], s) {
					i = (i + 1) & (size - 1)
					continue
				}
				next[s] = b
				break
			}
		}
		blocks := int32(len(rep))
		part, next = next, part
		if blocks == numBlocks {
			break
		}
		numBlocks = blocks
	}
	flat := make([]int32, int(numBlocks)*nsym)
	accept := make([]bool, numBlocks)
	for b, s := range rep {
		row := flat[b*nsym : (b+1)*nsym]
		for ai, t := range d.trans[s] {
			row[ai] = part[t]
		}
		accept[b] = d.accept[s]
	}
	return &DFA{alphabet: d.alphabet, symIndex: d.symIndex, trans: rows(flat, nsym), accept: accept, start: part[d.start]}
}

// Minimize hashes a signature FNV-1a style, one block id per step, and
// spreads the result with mix before taking table bits.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// mix is the splitmix64 finalizer.
func mix(h uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// Universal returns the automaton accepting Σ* over alpha.
func Universal(alpha Alphabet) *DFA {
	return MustCompile(allOf(alpha)+"*", alpha)
}

// EmptyLang returns the automaton accepting nothing over alpha.
func EmptyLang(alpha Alphabet) *DFA {
	return Universal(alpha).Complement()
}

func allOf(alpha Alphabet) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for _, b := range alpha.clone() {
		switch b {
		case ']', '\\', '^', '-':
			sb.WriteByte('\\')
		}
		sb.WriteByte(b)
	}
	sb.WriteByte(']')
	return sb.String()
}
