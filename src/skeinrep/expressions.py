"""Noncommutative polynomial expressions in the presentation generators.

The text grammar accepts ``+ - * ^``, parentheses, generator names and
scalar literals (rationals like ``3/4`` or ``0.5``, the root ``A`` and its
powers ``A^k``, and ``i`` in the bigfloat backend).  ``*`` may be omitted;
power binds tighter than product, product tighter than sum.  Scalar literals
are parsed straight into the backend of the enclosing root system, so one
expression source works for both backends.

Normalization rewrites every word into the ordered-monomial form
X1^a X2^b X3^c times a monomial in the central puncture generators, using
the oriented q-commutation rules of the surface presentation: each rule is
a relation of :attr:`Surface.relations` solved for its out-of-order pair, and
the relation defects, the puncture element and the centrality defect names
come from the same table.  Every rule
output either sorts the contracted pair or strictly lowers the word degree,
so the key (word length, inversion count) strictly falls and rewriting
terminates; the empirical confluence suite checks independence of the
rewrite order.  Like terms merge within one call: words are contracted in
decreasing key order, so each is contracted once, with its full merged
coefficient; every heap entry carries its key, counted only for the
outputs shorter than their word.  Exact normal forms are the same as
term-by-term rewriting gives; bigfloat coefficients round in merge order.

Evaluation in a representation walks the syntax tree on the root system's
matrix kernel (:func:`matrices.kernel`: rows of int quadruples in the
bigfloat backend), keeps literals and scalar images as scalars, folds each
sum in one kernel ``combine``, and wraps only the result.  Each entry of a
matrix product is its exact value rounded once (the kernel's ``product``);
scalings and sums round as the same steps on object arrays do.  A normal
form's terms go to ``combine`` directly, each word scaled by its scalar as
it is added, with the bits of evaluating its expression.  The relation
defect trees are built once per surface and root system and kept on the
root system (:func:`relation_defects`).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import matrices
from .matrices import Scaled
from .errors import ExponentOverflow, ParseError, UnknownGenerator
from .scalars import RootSystem, Scalar
from .surfaces import Surface

EXPONENT_CAP = 1 << 16


# ---------------------------------------------------------------------------
# syntax trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Scalar


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


@dataclass(frozen=True)
class SkeinExpr:
    surface: Surface
    rs: RootSystem
    node: object


# ---------------------------------------------------------------------------
# lexer / parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+|\.\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, end, surface, rs):
        self.tokens = tokens
        self.end = end  # the position reported at the end of input
        self.i = 0
        self.surface = surface
        self.rs = rs

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse_expr(self):
        terms = []
        while True:
            kind, val, _ = self.peek()
            signed = kind == "op" and val in "+-"
            if signed:
                self.next()
            elif terms:
                break
            term = self.parse_term()
            terms.append(Prod((Lit(self.rs.scalar(-1)), term)) if signed and val == "-" else term)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                factors.append(self.parse_factor())
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                factors.append(self.parse_factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def parse_factor(self):
        atom = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent, pos = self.parse_exponent()
            if abs(exponent) > EXPONENT_CAP:
                raise ExponentOverflow(f"exponent {exponent} exceeds the cap {EXPONENT_CAP}")
            if isinstance(atom, Lit):
                return Lit(atom.value ** exponent)
            if exponent < 0:
                raise ParseError("negative powers only apply to scalar literals", pos)
            return Power(atom, exponent)
        return atom

    def parse_exponent(self):
        """An exponent k, -k, (k) or (-k), and the position of its first token."""
        start = self.peek()
        paren = start[:2] == ("op", "(")
        if paren:
            self.next()
        kind, val, pos = self.next()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "num" or not val.isdigit():
            raise ParseError("expected an integer exponent", pos)
        if paren:
            self.expect_op(")")
        return sign * int(val), start[2]

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            if "/" in val and not int(val.partition("/")[2]):
                raise ParseError(f"zero denominator in {val!r}", pos)
            return Lit(self.rs.scalar(Fraction(val)))
        if kind == "name":
            if val == "A":
                return Lit(self.rs.A)
            if val == "i":
                if self.rs.backend != "bigfloat":
                    raise ParseError("the literal i needs the bigfloat backend", pos)
                return Lit(self.rs.scalar(complex(0.0, 1.0)))
            if val in self.surface.generators:
                return Gen(val)
            raise UnknownGenerator(f"unknown generator {val!r} for surface {self.surface.tag}", pos)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse(text: str, surface: Surface, rs: RootSystem) -> SkeinExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, len(text), surface, rs)
    node = parser.parse_expr()
    if parser.i != len(tokens):
        raise ParseError(f"trailing input {parser.peek()[1]!r}", parser.peek()[2])
    return SkeinExpr(surface, rs, node)


# ---------------------------------------------------------------------------
# rewrite system and normal forms
# ---------------------------------------------------------------------------

class RewriteSystem:
    """Oriented q-commutation rules of one surface presentation.

    Every rule maps an out-of-order adjacent pair to a combination of the
    sorted pair, a lower-degree generator, and (on the four-puncture sphere)
    central puncture monomials.
    """

    def __init__(self, surface: Surface, rs: RootSystem):
        self.surface = surface
        self.rs = rs
        self.rules = self._build_rules()
        # normalize's reading of each rule: the swap's scalar, then the
        # shorter outputs with None for a zero puncture delta
        self.contractions = {
            pair: (outputs[0][0], [(scal, repl, pdelta if any(pdelta) else None)
                                   for scal, repl, pdelta in outputs[1:]])
            for pair, outputs in self.rules.items()}

    def _build_rules(self):
        """Each relation solved for its out-of-order pair.

        With A^w l r - A^-w r l = (A^2w - A^-2w) out + (A^w - A^-w) q, a pair
        r l with l first in generator order becomes
        A^2w l r - A^w (A^2w - A^-2w) out - A^w (A^w - A^-w) q, and a pair
        l r with r first becomes A^-2w r l + A^-w (A^2w - A^-2w) out
        + A^-w (A^w - A^-w) q; q gives one term per puncture pair.  The
        first output is always the swapped pair, which has one inversion
        fewer; :func:`normalize` relies on that.
        """
        rs, w, punctures = self.rs, self.surface.weight, self.surface.punctures
        rank = self.surface.x_generators.index
        zero = (0,) * len(punctures)
        rules = {}
        for l, r, out, pairs in self.surface.relations:
            if rank(l) < rank(r):
                key, swap, scale = (r, l), rs.a_pow(2 * w), -rs.a_pow(w)
            else:
                key, swap, scale = (l, r), rs.a_pow(-2 * w), rs.a_pow(-w)
            central = scale * (rs.a_pow(w) - rs.a_pow(-w))
            rules[key] = [(swap, key[::-1], zero),
                          (scale * (rs.a_pow(2 * w) - rs.a_pow(-2 * w)), (out,), zero),
                          *((central, (), tuple(int(i in pair) for i in range(len(punctures))))
                            for pair in pairs)]
        return rules


@dataclass
class NormalForm:
    """Map from ordered monomials to nonzero coefficients."""

    surface: Surface
    rs: RootSystem
    terms: dict

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return (self.surface == other.surface and self.rs.compatible(other.rs)
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def monomial_keys(self):
        return sorted(self.terms.keys())

    def monomial_string(self, key) -> str:
        xexp, pexp = key
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(self.surface.generators, xexp + pexp) if e]
        return " ".join(factors) or "1"

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[key]}) {self.monomial_string(key)}"
                          for key in self.monomial_keys())


def _expand(node, rs):
    """Expand a syntax tree into (coefficient, word) pairs.

    A word without a literal carries one shared ``rs.one``, and products with
    it are skipped: multiplying by one changes no value, since every literal's
    parts are already at the working precision.
    """
    one = rs.one

    def times(c1, c2):
        return c2 if c1 is one else c1 if c2 is one else c1 * c2

    def expand(node):
        if isinstance(node, Lit):
            return [(node.value, ())]
        if isinstance(node, Gen):
            return [(one, (node.name,))]
        if isinstance(node, Sum):
            out = []
            for t in node.terms:
                out.extend(expand(t))
            return out
        if isinstance(node, Prod):
            out = [(one, ())]
            for f in node.factors:
                rhs = expand(f)
                out = [(times(c1, c2), w1 + w2) for (c1, w1) in out for (c2, w2) in rhs]
            return out
        if isinstance(node, Power):
            if node.exponent > EXPONENT_CAP:
                raise ExponentOverflow(f"exponent {node.exponent} exceeds the cap {EXPONENT_CAP}")
            out = [(one, ())]
            base = expand(node.base)
            for _ in range(node.exponent):
                out = [(times(c1, c2), w1 + w2) for (c1, w1) in out for (c2, w2) in base]
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return expand(node)


def _find_redex(word, rules, order):
    positions = range(len(word) - 1) if order == "leftmost" else range(len(word) - 2, -1, -1)
    for i in positions:
        if (word[i], word[i + 1]) in rules:
            return i
    return None


def _inversions(word, rank):
    """Number of out-of-order letter pairs of ``word``, in one pass over it."""
    seen = [0] * len(rank)
    count = 0
    for g in word:
        r = rank[g]
        count += sum(seen[r + 1:])
        seen[r] += 1
    return count


def normalize(expr: SkeinExpr, rsys: RewriteSystem = None, order: str = "leftmost") -> NormalForm:
    """Rewrite to the ordered-monomial normal form, merging like terms as it goes.

    Every (letter word, puncture vector) pair carries one merged coefficient.
    Words are contracted in decreasing (length, inversion count) order: every
    rule output either swaps one out-of-order pair or is shorter, so once a
    word is taken off the heap nothing can add to it again.  Each heap entry
    carries its key: the swap (every rule's first output) keeps the length
    and has exactly one inversion fewer than the contracted word, so only a
    shorter output has its inversions counted, and an output with a zero
    puncture delta keeps the contracted word's puncture vector.  A merged
    coefficient that is exactly zero (exact backend only) is dropped; bigfloat
    coefficients round in merge order, and the finished normal form drops
    coefficients that are zero within tolerance.  ``order`` selects which
    redex of a word is contracted; the result is independent of the choice
    (checked empirically by the test suite).  No state is kept between calls.
    """
    if rsys is None:
        rsys = RewriteSystem(expr.surface, expr.rs)
    if rsys.surface != expr.surface or not rsys.rs.compatible(expr.rs):
        raise ValueError("expression and rewrite system disagree on surface or backend")
    surface, rs = expr.surface, expr.rs
    contractions = rsys.contractions
    punctures = surface.punctures
    xnames = surface.x_generators
    rank = {g: i for i, g in enumerate(xnames)}
    exact = rs.backend == "exact"

    pending = {}  # (word, pvec) -> merged coefficient, not yet contracted
    heap = []

    def add(coeff, word, pvec, inversions=None):
        """Merge coeff into (word, pvec); a new word is pushed with -inversions as given, or counted."""
        key = (word, pvec)
        if key in pending:
            pending[key] = pending[key] + coeff
        else:
            pending[key] = coeff
            if inversions is None:
                inversions = -_inversions(word, rank)
            heapq.heappush(heap, (-len(word), inversions, word, pvec))

    for coeff, word in _expand(expr.node, rs):
        pvec = [0] * len(punctures)
        letters = []
        for g in word:
            if g in punctures:
                pvec[punctures.index(g)] += 1
            else:
                letters.append(g)
        add(coeff, tuple(letters), tuple(pvec))

    result = {}
    while heap:
        _, inversions, word, pvec = heapq.heappop(heap)
        coeff = pending.pop((word, pvec))
        if exact and coeff.is_zero():
            continue
        pos = _find_redex(word, contractions, order)
        if pos is None:
            xexp = tuple(word.count(n) for n in xnames)
            if any(e > EXPONENT_CAP for e in xexp) or any(e > EXPONENT_CAP for e in pvec):
                raise ExponentOverflow("monomial exponent exceeds the cap")
            result[(xexp, pvec)] = coeff  # one sorted word per monomial
            continue
        head, tail = word[:pos], word[pos + 2:]
        swap, shorter = contractions[word[pos:pos + 2]]
        add(coeff * swap, head + (word[pos + 1], word[pos]) + tail, pvec, inversions + 1)
        for scal, repl, pdelta in shorter:
            add(coeff * scal, head + repl + tail,
                pvec if pdelta is None else tuple(p + d for p, d in zip(pvec, pdelta)))

    cleaned = {k: v for k, v in result.items() if not v.is_zero()}
    return NormalForm(surface, rs, cleaned)


def _power_factors(names, exponents):
    return [Power(Gen(n), e) if e > 1 else Gen(n) for n, e in zip(names, exponents) if e]


def _product(factors):
    return factors[0] if len(factors) == 1 else Prod(tuple(factors))


def normal_form_to_expr(nf: NormalForm) -> SkeinExpr:
    """The normal form as a sum of monomial-first terms, in ``nf.terms`` order.

    A term is ``Prod((word, scalar))``: the word is the X generator powers in
    generator order, the scalar is ``Lit(coeff)`` times the puncture powers
    (or ``Lit(coeff)`` alone), and a term with no X part is its scalar.  So
    :func:`evaluate` reads each monomial through the rep's word memo and
    scales it once by the merged scalar.
    """
    surface = nf.surface
    terms = []
    for (xexp, pexp), coeff in nf.terms.items():
        word = _power_factors(surface.x_generators, xexp)
        scalar = _product([Lit(coeff)] + _power_factors(surface.punctures, pexp))
        terms.append(Prod((_product(word), scalar)) if word else scalar)
    node = Sum(tuple(terms)) if len(terms) != 1 else terms[0]
    if not terms:
        node = Lit(nf.rs.zero)
    return SkeinExpr(nf.surface, nf.rs, node)


# ---------------------------------------------------------------------------
# evaluation in a representation
# ---------------------------------------------------------------------------

def _word_key(node):
    """The (name, exponent) factors of a product of generator powers, else None."""
    key = []
    for f in node.factors if isinstance(node, Prod) else (node,):
        if isinstance(f, Gen):
            key.append((f.name, 1))
        elif isinstance(f, Power) and isinstance(f.base, Gen):
            key.append((f.base.name, f.exponent))
        else:
            return None
    return tuple(key)


class _Evaluation:
    """Kernel values in one representation, for :func:`evaluate` and :func:`evaluate_normal_form`.

    A value is kernel rows, or ``Scaled(s, None)``: s Id kept as the
    kernel entry s.  Generator words are read through the rep's word memo.
    """

    def __init__(self, surface, rs, rep):
        if surface != rep.surface:
            raise ValueError(f"expression over {surface.tag} evaluated in {rep.surface.tag}")
        if not rs.compatible(rep.rs):
            raise ValueError("expression and representation use different root systems")
        self.rep = rep
        self.k = matrices.kernel(rep.rs)
        self.words = rep._memo.setdefault("words", {})  # (name, exponent) factors -> value

    def scalar(self, s):
        return Scaled(self.k.entry(s), None)

    def times(self, x, y):
        k = self.k
        if isinstance(x, Scaled) != isinstance(y, Scaled):
            return k.combine([self.summand(x, y)])
        return Scaled(k.times(x.s, y.s), None) if isinstance(x, Scaled) else k.product(x, y)

    def summand(self, x, y):
        """x y as a term of ``combine``: (s Id) B and B (s Id) stay ``Scaled(s, B)``."""
        if isinstance(x, Scaled) == isinstance(y, Scaled):
            return self.times(x, y)
        return Scaled(x.s, y) if isinstance(x, Scaled) else Scaled(y.s, x)

    def walk(self, node, summand=False):
        if isinstance(node, Lit):
            return self.scalar(node.value)
        if isinstance(node, Sum):
            return self.k.combine([self.walk(t, summand=True) for t in node.terms])
        key = _word_key(node)
        if key is not None:
            return self.word(key)
        if isinstance(node, Prod):
            *head, last = [self.walk(f) for f in node.factors]
            if not head:
                return last
            return (self.summand if summand else self.times)(reduce(self.times, head), last)
        if isinstance(node, Power):
            if node.exponent == 0:
                return self.scalar(self.rep.rs.one)
            g = self.walk(node.base)
            return reduce(self.times, [g] * node.exponent)  # Id * G is G: its entries are at working precision
        raise TypeError(f"not an expression node: {node!r}")

    def power(self, name, e):
        words = self.words
        key = ((name, e),)
        if key not in words:
            if e == 0:
                value = self.scalar(self.rep.rs.one)
            elif e == 1:
                img = self.rep.image(name)
                value = Scaled(img.rows[0][0], None) if img.scalar else img.rows
            else:
                start = next((d for d in range(e - 1, 1, -1) if ((name, d),) in words), 1)
                value = self.power(name, start)
                g = self.power(name, 1)
                for _ in range(e - start):
                    value = self.times(value, g)
            words[key] = value
        return words[key]

    def word(self, key):
        words = self.words
        n = len(key)
        while n > 1 and key[:n] not in words:
            n -= 1
        value = words[key[:n]] if n > 1 else self.power(*key[0])
        for i in range(n, len(key)):
            value = self.times(value, self.power(*key[i]))
            words[key[:i + 1]] = value
        return value

    def result(self, value):
        """A new object array of the value."""
        k = self.k
        return k.wrap(k.widen(value.s, self.rep.dim) if isinstance(value, Scaled) else value)


def evaluate(expr: SkeinExpr, rep):
    """Homomorphic evaluation: sums to matrix sums, products to products.

    The tree is walked on the root system's :func:`matrices.kernel`, from
    the generator rows the rep keeps (:meth:`Representation.image`), and only
    the result is wrapped, into a new array.  A literal is value * Id; sums
    and products run left to right; a power G^e is Id * G * ... * G
    multiplied left to right.  A sum is one ``combine`` of its terms, folded
    entry by entry; a term that is a product whose last step multiplies by
    s Id, or multiplies s Id by rows B, is handed over as ``Scaled(s, B)``
    and scaled as it is added, with the bits of scaling first.

    Generator words (a power of a generator, or a product whose factors are
    all generators or their powers) are read through a memo keyed by their
    (name, exponent) factors.  A word of two or more factors is its prefix
    word times its last factor, the same left fold, and a power starts from
    the highest lower power of that generator already kept; both give the
    bits of the fold from scratch.  The memo is the rep's
    (``Representation._memo["words"]``); only requested powers and words,
    and their prefixes, are kept.

    A literal, and a generator whose rows are exactly s Id (a puncture
    image, in the usual case), stays the one entry s until the result is
    widened to s Id.  No bit moves, because the kernel skips exact zeros:
    an entry of (s Id) B has the one term s B[i, j], so it is that exact
    product rounded once (``matrices._raw_times``, by ``combine``); s Id + B
    adds s to the diagonal and leaves each off-diagonal entry e as
    ``quad_add(0, e)`` leaves it, unchanged at the working precision; two
    scalars multiply and add as one diagonal entry does, and an exact zero
    stays one.  B (s Id) and B + s Id are taken as (s Id) B and s Id + B:
    ``_raw_times`` and ``quad_add`` are symmetric in their operands
    (``scalars._add`` is), and exact products and sums commute.  So the bits
    are those of the same steps on object arrays, with
    :func:`matrices.matmul` for each product.
    """
    ev = _Evaluation(expr.surface, expr.rs, rep)
    return ev.result(ev.walk(expr.node))


def evaluate_normal_form(nf: NormalForm, rep):
    """:func:`evaluate` of :func:`normal_form_to_expr`, without building the expression.

    Each term of ``nf.terms``, in order, is its word (the X generator powers
    in generator order, read through the word memo) and its scalar (the
    coefficient times the puncture powers, left to right), and the word is
    scaled by the scalar as the terms are added in one ``combine``: each
    monomial is scaled once, with the bits of walking the expression.
    """
    ev = _Evaluation(nf.surface, nf.rs, rep)
    surface = nf.surface
    terms = []
    for (xexp, pexp), coeff in nf.terms.items():
        scalar = ev.scalar(coeff)
        for name, e in zip(surface.punctures, pexp):
            if e:
                scalar = ev.times(scalar, ev.power(name, e))
        key = tuple((name, e) for name, e in zip(surface.x_generators, xexp) if e)
        terms.append(ev.summand(ev.word(key), scalar) if key else scalar)
    return ev.result(ev.k.combine(terms or [ev.scalar(nf.rs.zero)]))


# ---------------------------------------------------------------------------
# distinguished elements and presentation relations
# ---------------------------------------------------------------------------

def _q_sum(surface, pairs):
    """The central term q of a relation: the sum of its puncture pair products."""
    return Sum(tuple(Prod(tuple(Gen(surface.punctures[i]) for i in pair)) for pair in pairs))


def _cubic(surface, rs):
    """The cubic relation's defect on the sphere, the puncture loop on the tori.

    The head A^w X1 X2 X3 - A^2w X1^2 - A^-2w X2^2 - A^2w X3^2 is followed,
    on the sphere, by -A^w q1 X1 - A^-w q2 X2 - A^w q3 X3, with each q that
    of the relation with that out generator.  The tail is A^2 + A^-2 on the
    tori and (A^2 + A^-2)^2 - P0 P1 P2 P3 - P0^2 - P1^2 - P2^2 - P3^2 on the
    sphere, where the whole evaluates to zero in every representation.
    """
    w = surface.weight
    q = {out: pairs for _, _, out, pairs in surface.relations}
    signs = tuple(zip(surface.x_generators, (1, -1, 1)))  # X2's terms take A^-2w and A^-w
    terms = [Prod((Lit(rs.a_pow(w)),) + tuple(Gen(x) for x in surface.x_generators))]
    terms += [Prod((Lit(-rs.a_pow(2 * w * e)), Power(Gen(x), 2))) for x, e in signs]
    terms += [Prod((Lit(-rs.a_pow(w * e)), _q_sum(surface, q[x]), Gen(x))) for x, e in signs if q[x]]
    square = rs.a_pow(2) + rs.a_pow(-2)
    if surface.kind != "sphere4":
        return Sum(tuple(terms) + (Lit(square),))
    minus = Lit(rs.scalar(-1))
    terms += [Lit(square * square), Prod((minus,) + tuple(Gen(p) for p in surface.punctures))]
    terms += [Prod((minus, Power(Gen(p), 2))) for p in surface.punctures]
    return Sum(tuple(terms))


def puncture_element(surface: Surface, rs: RootSystem) -> SkeinExpr:
    """The distinguished central element of the surface.

    For the one-puncture torus this is the loop around the puncture written
    in the X generators; for the four-puncture sphere it is the defect of
    the degree-three relation, which must evaluate to zero.
    """
    if surface.kind not in ("torus1", "sphere4"):
        raise ValueError(f"no distinguished puncture element for surface {surface.tag}")
    return SkeinExpr(surface, rs, _cubic(surface, rs))


def central_names(surface: Surface, puncture: str) -> dict:
    """The names of the centrality defects P X - X P of ``puncture``, by X."""
    return {x: f"central_{puncture}_{x}" for x in surface.x_generators}


def relation_defects(surface: Surface, rs: RootSystem) -> dict:
    """Defect expressions of all presentation relations; zero on representations.

    The trees are built once per surface and root system and kept on the
    root system object, as its matrix kernel is; each call returns a new
    dict of the kept expressions.
    """
    kept = rs.__dict__.setdefault("_relation_defects", {})
    if surface not in kept:
        kept[surface] = _relation_defect_trees(surface, rs)
    return dict(kept[surface])


def _relation_defect_trees(surface, rs):
    """The defect expressions of :func:`relation_defects`, built from :attr:`Surface.relations`."""
    defects = {}
    w = surface.weight
    for l, r, out, pairs in surface.relations:
        terms = (
            Prod((Lit(rs.a_pow(w)), Gen(l), Gen(r))),
            Prod((Lit(-rs.a_pow(-w)), Gen(r), Gen(l))),
            Prod((Lit(-(rs.a_pow(2 * w) - rs.a_pow(-2 * w))), Gen(out))),
        )
        if pairs:
            terms += (Prod((Lit(-(rs.a_pow(w) - rs.a_pow(-w))), _q_sum(surface, pairs))),)
        defects[f"qcomm_{l[1:]}{r[1:]}"] = Sum(terms)
    minus = Lit(rs.scalar(-1))
    if surface.kind == "torus1":
        defects["puncture"] = Sum((_cubic(surface, rs), Prod((minus, Gen("P")))))
    elif surface.kind == "torus0":
        defects["closed_puncture"] = Sum((_cubic(surface, rs), Lit(rs.a_pow(2) + rs.a_pow(-2))))
    elif surface.kind == "sphere4":
        defects["cubic"] = _cubic(surface, rs)
        for p in surface.punctures:
            for x, name in central_names(surface, p).items():
                defects[name] = Sum((Prod((Gen(p), Gen(x))), Prod((minus, Gen(x), Gen(p)))))
    return {name: SkeinExpr(surface, rs, node) for name, node in defects.items()}


def parse_scalar(text: str, rs: RootSystem) -> Scalar:
    """Parse a generator-free expression straight to a scalar value.

    This is the literal grammar the command line accepts for numeric flags.
    """
    from .surfaces import sphere_k

    expr = parse(text, sphere_k(0), rs)
    total = rs.zero
    for coeff, word in _expand(expr.node, rs):
        if word:
            raise ParseError("expected a pure scalar expression")
        total = total + coeff
    return total


# ---------------------------------------------------------------------------
# random expressions (tests, demos, confluence experiments)
# ---------------------------------------------------------------------------

def random_word_expression(surface: Surface, rng, max_word_len: int = 8, max_terms: int = 3) -> str:
    """Random expression text: a small sum of scalar-weighted generator words."""
    gens = surface.generators
    pieces = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice(["1", "2", "3", "1/2", "A", "A^2", "A^-1", "A^-3"])
        word = [rng.choice(gens) for _ in range(rng.randint(1, max_word_len))]
        sign = rng.choice(["+", "-"])
        pieces.append((sign, coeff + " " + " ".join(word)))
    text = ""
    for sign, piece in pieces:
        if not text:
            text = piece if sign == "+" else f"-{piece}"
        else:
            text += f" {sign} {piece}"
    return text
