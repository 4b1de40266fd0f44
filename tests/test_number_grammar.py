"""The error-model spec's number grammar: one outcome per spelling, on every
CPython.

Fraction() and int() alone take more on a later interpreter than on an
earlier one (digit separators from 3.11, spaces around the slash from 3.12),
and non-ASCII digits on all of them.  The spec checks each token against one
grammar first, so a spelling is read, or refused, the same everywhere.  The
table runs under pytest and also as a plain script, for an interpreter
without pytest:

    PYTHONPATH=src python tests/test_number_grammar.py
"""

import itertools
import sys
from fractions import Fraction

from gammacap.channel import _EXACT_NUMBER, _exact_numbers, parse_error_model


def _number(token):
    (value,) = _exact_numbers(token, "p")
    return value


def _constant_rank(spec):
    """The rank of a constant error law on 16 x 16 matrices over F_2."""
    return parse_error_model(spec, 2, 16, 16).probs.index(1)


# (reader, spelling, what it reads as, or None where it is refused)
SPELLINGS = (
    (_number, "1/2", Fraction(1, 2)),
    (_number, "0.1", Fraction(1, 10)),
    (_number, "1e-2", Fraction(1, 100)),
    (_number, ".5", Fraction(1, 2)),
    (_number, " 1/2 ", Fraction(1, 2)),
    (_number, "1_0/2_0", None),
    (_number, "1_000", None),
    (_number, "1 / 2", None),
    (_number, "\N{ARABIC-INDIC DIGIT THREE}", None),
    (_number, "1/0", None),
    (_number, "0x10", None),
    (_number, "", None),
    (_constant_rank, "constant:t=3", 3),
    (_constant_rank, "constant:t=1_0", None),
    (_constant_rank, "constant:t=\N{ARABIC-INDIC DIGIT THREE}", None),
)


def mismatches():
    """(spelling, wanted, got) for each spelling whose outcome is not the
    table's; a refusal is a ValueError."""
    out = []
    for read, text, want in SPELLINGS:
        try:
            got = read(text)
        except ValueError:
            got = None
        if got != want:
            out.append((text, want, got))
    return out


def unread_tokens():
    """Every token of up to five characters from digits, sign, point,
    exponent, slash, separator and space that the grammar accepts but
    Fraction() cannot read: none, so a checked token never fails later."""
    out = []
    for size in range(6):
        for chars in itertools.product("01+-.e/_ ", repeat=size):
            token = "".join(chars)
            if _EXACT_NUMBER.fullmatch(token):
                try:
                    Fraction(token)
                except (ValueError, ZeroDivisionError):
                    out.append(token)
    return out


def test_every_spelling_has_its_outcome():
    assert mismatches() == []


def test_fraction_reads_every_accepted_token():
    assert unread_tokens() == []


if __name__ == "__main__":
    bad = mismatches() + unread_tokens()
    version = sys.version.split()[0]
    print(f"CPython {version}: {len(SPELLINGS)} spellings, mismatches {bad}")
    sys.exit(1 if bad else 0)
