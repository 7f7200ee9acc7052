"""CPQL: a tiny declarative front end for closest pair queries.

The catalog (:mod:`repro.catalog`) names datasets; CPQL names queries
over them.  One statement form is spoken::

    SELECT CLOSEST PAIRS K 10
    FROM parks, schools
    WHERE RANGE (0.1, 0.1, 0.6, 0.7) ON BOTH
      AND COLORS MOD 4 DISTINCT P (1, 3) Q (0, 2)
    USING heap

Grammar (keywords case-insensitive, ``[]`` optional)::

    query    := SELECT CLOSEST PAIRS [K n] FROM name [, name]
                [WHERE pred (AND pred)*] [USING ident]
    name     := ident | P | Q
    pred     := RANGE ( num {, num} ) [ON side]
              | COLORS [MOD n] [DISTINCT] [P ( ints )] [Q ( ints )]
    side     := P | Q | BOTH

``FROM a`` alone is the self-join ``FROM a, a``.  Keywords are
reserved, except that ``P`` and ``Q`` -- side selectors only inside
``WHERE`` -- may name datasets: ``FROM p, q``.  ``RANGE`` takes an
even number of coordinates, low corner then high corner.  ``COLORS``
needs at least one of ``MOD`` / ``DISTINCT``; ``COLORS DISTINCT``
alone is the classical bichromatic query (modulus 2).  ``USING``
forces an algorithm (any of :data:`repro.core.api.ALGORITHMS`);
omitted, the service planner chooses (``auto``).

:func:`parse` produces a frozen :class:`ParsedQuery`;
:meth:`ParsedQuery.to_service_request` projects it onto the service's
:class:`~repro.service.CPQRequest` (the pair name is the two dataset
names joined by ``","``) and :meth:`ParsedQuery.to_core_request` onto
the core :class:`repro.core.api.CPQRequest`.  Compilation adds
nothing the programmatic API lacks: a compiled query returns
byte-identical pairs and tie order to the equivalent hand-built
request -- the parity the CPQL test suite asserts in-process, through
the CLI and over a sharded socket.

Syntax errors raise :class:`~repro.errors.CPQLError` with the 0-based
character position of the offending token (``exc.caret()`` renders
the standard source/caret display).  Semantic errors -- capability
mismatches, bad residues -- surface from the constraint specs and the
algorithm registry exactly as they do for programmatic requests.

``tools/check_docs.py`` verifies the keyword table in
``docs/CATALOG.md`` against :data:`KEYWORDS`, so the documented
grammar cannot drift from the tokenizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.constraints import ColorSpec, RangeSpec
from repro.errors import CPQLError

#: Every keyword the tokenizer recognises, alphabetically.  The
#: documented grammar (docs/CATALOG.md) is checked against this tuple.
KEYWORDS = (
    "AND",
    "BOTH",
    "CLOSEST",
    "COLORS",
    "DISTINCT",
    "FROM",
    "K",
    "MOD",
    "ON",
    "P",
    "PAIRS",
    "Q",
    "RANGE",
    "SELECT",
    "USING",
    "WHERE",
)

_KEYWORD_SET = frozenset(KEYWORDS)

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<punct>[(),])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexed token: kind, raw text, 0-based source position."""

    kind: str  # "number" | "ident" | "punct" | "end"
    text: str
    position: int

    @property
    def keyword(self) -> Optional[str]:
        """The upper-cased keyword this token spells, if any."""
        if self.kind == "ident" and self.text.upper() in _KEYWORD_SET:
            return self.text.upper()
        return None


def tokenize(source: str) -> List[Token]:
    """Lex ``source``; raises :class:`CPQLError` on a stray character."""
    tokens: List[Token] = []
    position = 0
    while position < len(source):
        match = _TOKEN.match(source, position)
        if match is None:
            raise CPQLError(
                f"unexpected character {source[position]!r}",
                source=source, position=position,
            )
        if match.lastgroup != "ws":
            tokens.append(Token(
                kind=match.lastgroup, text=match.group(),
                position=position,
            ))
        position = match.end()
    tokens.append(Token(kind="end", text="", position=len(source)))
    return tokens


@dataclass(frozen=True)
class ParsedQuery:
    """A validated CPQL statement, ready to compile to a request.

    ``algorithm`` is ``"auto"`` when no ``USING`` clause was given --
    the service planner then picks, exactly as for programmatic
    ``algorithm="auto"`` requests.
    """

    dataset_p: str
    dataset_q: str
    k: int = 1
    range_spec: Optional[RangeSpec] = None
    colors: Optional[ColorSpec] = None
    algorithm: str = "auto"

    @property
    def pair_name(self) -> str:
        """The service pair name this query addresses."""
        return f"{self.dataset_p},{self.dataset_q}"

    def to_service_request(self, pair: Optional[str] = None, **kwargs):
        """This query as a :class:`repro.service.CPQRequest`.

        ``pair`` overrides the derived :attr:`pair_name`; ``kwargs``
        pass through to the service request (``deadline_ms``,
        ``use_cache`` ...).
        """
        # Imported here: repro.service pulls in the query engine, and
        # the parser must stay importable from repro.query without it.
        from repro.service import CPQRequest

        return CPQRequest(
            pair=pair if pair is not None else self.pair_name,
            k=self.k,
            algorithm=self.algorithm,
            range=self.range_spec,
            colors=self.colors,
            **kwargs,
        )

    def to_core_request(self, algorithm: Optional[str] = None, **kwargs):
        """This query as a core :class:`repro.core.api.CPQRequest`.

        The core request needs a concrete algorithm; pass one to
        resolve an ``auto`` query (the planner's pick, or a test's
        fixed choice).
        """
        from repro.core.api import CPQRequest

        if algorithm is None:
            algorithm = self.algorithm
        if algorithm == "auto":
            raise ValueError(
                "an 'auto' query needs a planner; pass algorithm= or "
                "compile via to_service_request()"
            )
        return CPQRequest(
            k=self.k,
            algorithm=algorithm,
            range=self.range_spec,
            colors=self.colors,
            **kwargs,
        )


class _Parser:
    """Recursive descent over the token list."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.index = 0

    # -- plumbing ----------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def error(self, message: str, token: Optional[Token] = None) -> CPQLError:
        token = token if token is not None else self.current
        found = f", found {token.text!r}" if token.kind != "end" else (
            ", found end of query"
        )
        return CPQLError(
            f"{message}{found}", source=self.source,
            position=token.position,
        )

    def at_keyword(self, *keywords: str) -> bool:
        return self.current.keyword in keywords

    def take_keyword(self, keyword: str) -> Token:
        if self.current.keyword != keyword:
            raise self.error(f"expected {keyword}")
        token = self.current
        self.index += 1
        return token

    def accept_keyword(self, keyword: str) -> Optional[Token]:
        if self.current.keyword == keyword:
            return self.take_keyword(keyword)
        return None

    def take_punct(self, char: str) -> Token:
        if not (self.current.kind == "punct"
                and self.current.text == char):
            raise self.error(f"expected {char!r}")
        token = self.current
        self.index += 1
        return token

    def take_ident(self, what: str) -> Token:
        # Keywords are reserved: "FROM SELECT, x" must not silently
        # read SELECT as a dataset name.
        if self.current.kind != "ident" or self.current.keyword:
            raise self.error(f"expected {what}")
        token = self.current
        self.index += 1
        return token

    def take_dataset(self) -> str:
        # P and Q select sides only inside WHERE, so in FROM they are
        # plain names ("FROM p, q"); other keywords stay reserved.
        if self.current.keyword in ("P", "Q"):
            self.index += 1
            return self.tokens[self.index - 1].text
        return self.take_ident("a dataset name").text

    def take_int(self, what: str) -> int:
        if self.current.kind != "number":
            raise self.error(f"expected {what}")
        token = self.current
        try:
            value = int(token.text)
        except ValueError:
            raise self.error(f"expected an integer {what}",
                             token) from None
        self.index += 1
        return value

    def take_number(self, what: str = "a number") -> float:
        if self.current.kind != "number":
            raise self.error(f"expected {what}")
        token = self.current
        self.index += 1
        return float(token.text)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> ParsedQuery:
        self.take_keyword("SELECT")
        self.take_keyword("CLOSEST")
        self.take_keyword("PAIRS")
        k = 1
        if self.accept_keyword("K"):
            k = self.take_int("the result cardinality K")
            if k < 1:
                raise self.error("K must be >= 1",
                                 self.tokens[self.index - 1])
        self.take_keyword("FROM")
        dataset_p = self.take_dataset()
        dataset_q = dataset_p  # FROM a == self-join FROM a, a
        if self.current.kind == "punct" and self.current.text == ",":
            self.take_punct(",")
            dataset_q = self.take_dataset()
        range_spec = None
        colors = None
        if self.accept_keyword("WHERE"):
            while True:
                if self.at_keyword("RANGE"):
                    if range_spec is not None:
                        raise self.error("duplicate RANGE predicate")
                    range_spec = self.parse_range()
                elif self.at_keyword("COLORS"):
                    if colors is not None:
                        raise self.error("duplicate COLORS predicate")
                    colors = self.parse_colors()
                else:
                    raise self.error("expected RANGE or COLORS")
                if not self.accept_keyword("AND"):
                    break
        algorithm = "auto"
        if self.accept_keyword("USING"):
            algorithm = self.take_ident("an algorithm name").text.lower()
            from repro.core.api import ALGORITHMS

            if algorithm not in ALGORITHMS:
                raise self.error(
                    f"unknown algorithm; expected one of "
                    f"{', '.join(ALGORITHMS)}",
                    self.tokens[self.index - 1],
                )
        if self.current.kind != "end":
            raise self.error("expected end of query")
        try:
            return ParsedQuery(
                dataset_p=dataset_p,
                dataset_q=dataset_q,
                k=k,
                range_spec=range_spec,
                colors=colors,
                algorithm=algorithm,
            )
        except ValueError as exc:
            # Constraint-spec validation (bad residues, bad modulus)
            # re-raised with the query context attached.
            raise CPQLError(str(exc), source=self.source,
                            position=0) from exc

    def parse_range(self) -> RangeSpec:
        keyword = self.take_keyword("RANGE")
        self.take_punct("(")
        values = [self.take_number("a coordinate")]
        while self.current.kind == "punct" and self.current.text == ",":
            self.take_punct(",")
            values.append(self.take_number("a coordinate"))
        self.take_punct(")")
        mode = "both"
        if self.accept_keyword("ON"):
            side = self.current
            for candidate in ("P", "Q", "BOTH"):
                if self.accept_keyword(candidate):
                    mode = candidate.lower()
                    break
            else:
                raise self.error("expected P, Q or BOTH", side)
        try:
            return RangeSpec.from_corners(values, mode)
        except ValueError as exc:
            raise CPQLError(str(exc), source=self.source,
                            position=keyword.position) from exc

    def parse_colors(self) -> ColorSpec:
        keyword = self.take_keyword("COLORS")
        modulus = None
        if self.accept_keyword("MOD"):
            modulus = self.take_int("the color modulus")
        distinct = self.accept_keyword("DISTINCT") is not None
        if modulus is None:
            if not distinct:
                raise self.error(
                    "COLORS needs MOD n and/or DISTINCT", keyword
                )
            modulus = 2  # the classical bichromatic query
        colors_p = colors_q = None
        while self.at_keyword("P", "Q"):
            side = self.current.keyword
            self.index += 1
            residues = self.parse_int_list()
            if side == "P":
                colors_p = residues
            else:
                colors_q = residues
        try:
            return ColorSpec(modulus=modulus, colors_p=colors_p,
                             colors_q=colors_q, distinct=distinct)
        except ValueError as exc:
            raise CPQLError(str(exc), source=self.source,
                            position=keyword.position) from exc

    def parse_int_list(self) -> Tuple[int, ...]:
        self.take_punct("(")
        values = [self.take_int("a color")]
        while self.current.kind == "punct" and self.current.text == ",":
            self.take_punct(",")
            values.append(self.take_int("a color"))
        self.take_punct(")")
        return tuple(values)


def parse(source: str) -> ParsedQuery:
    """Parse one CPQL statement; raises :class:`CPQLError` on bad
    syntax (with the character position of the offence)."""
    if not isinstance(source, str):
        raise CPQLError(
            f"query must be a string, got {type(source).__name__}"
        )
    return _Parser(source).parse()


#: The unambiguous name ``repro.query`` re-exports.
parse_cpql = parse
