"""The number grammar of the error-model spec and of --tol: one outcome per
spelling, on every CPython.

Fraction() and int() alone take more on a later interpreter than on an
earlier one (digit separators from 3.11, spaces around the slash from 3.12),
and non-ASCII digits on all of them; float() takes digit separators, non-ASCII
digits, inf and nan.  The spec checks each token against one grammar first,
and --tol against its decimals, so a spelling is read, or refused, the same
everywhere.  It also pins the size rule: the numbers of one text hold at most
4 300 digits in all, and an integer token at most 4 300.  The table runs under
pytest and also as a plain script, for an interpreter without pytest:

    PYTHONPATH=src python tests/test_number_grammar.py
"""

import argparse
import itertools
import sys
from fractions import Fraction

from gammacap.channel import _EXACT_NUMBER, _exact_numbers, parse_error_model
from gammacap.cli import _float_flag, _int_flag


def _number(token):
    (value,) = _exact_numbers(token, "p")
    return value


def _constant_rank(spec):
    """The rank of a constant error law on 16 x 16 matrices over F_2."""
    return parse_error_model(spec, 2, 16, 16).probs.index(1)


def _numbers(text):
    """The numbers of one comma-separated text, as ranks --input reads them."""
    return tuple(_exact_numbers(text, "--input"))


def _rank_zero(spec):
    """P(rank 0) of an error law on 4 x 4 matrices over F_2."""
    return parse_error_model(spec, 2, 4, 4).probs[0]


def _integer_flag(text):
    """An integer flag as the CLI reads it, a refusal raised as a ValueError."""
    try:
        return _int_flag(text)
    except argparse.ArgumentTypeError as refused:
        raise ValueError(refused) from None


def _tolerance(text):
    """--tol as the CLI reads it, a refusal raised as a ValueError."""
    try:
        return _float_flag(text)
    except argparse.ArgumentTypeError as refused:
        raise ValueError(refused) from None


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
    # The size rule: at most 4 300 digits in one text, a decimal counting
    # the magnitude of its exponent, an a/b token both halves.
    (_number, "1e-4000", Fraction(1, 10**4000)),
    (_number, "1e-000000000000000000001", Fraction(1, 10)),
    (_number, "1e-30000", None),
    (_number, "1e-300000", None),
    (_number, "1e-3000000", None),
    (_number, "1e100000", None),
    (_number, "1e3000000", None),
    (_number, "1e-" + "9" * 5000, None),
    (_numbers, "1/" + "7" * 4299, (Fraction(1, int("7" * 4299)),)),
    (_numbers, "1/" + "7" * 4300, None),
    (_numbers, ",".join(f"1/{10**4299 + i}" for i in range(65)), None),
    (_numbers, "1e-2149,1e-2149", (Fraction(1, 10**2149),) * 2),
    (_numbers, "1e-2150,1e-2149", None),
    (_rank_zero, "binomial:T=4,p=1e-4000", (1 - Fraction(15, 16 * 10**4000)) ** 4),
    (_rank_zero, "binomial:T=4,p=1e-30000", None),
    (_rank_zero, "binomial:T=1,p=1e100000", None),
    (_rank_zero, "binomial:T=1,p=1e3000000", None),
    (_rank_zero, "empirical:1e-4000,1", None),
    (_rank_zero, "empirical:1e-300000,1", None),
    (_rank_zero, "empirical:1e-3000000,1", None),
    (_constant_rank, "constant:t=3", 3),
    (_constant_rank, "constant:t=1_0", None),
    (_constant_rank, "constant:t=\N{ARABIC-INDIC DIGIT THREE}", None),
    (_constant_rank, "constant:t=" + "0" * 4299 + "3", 3),
    (_constant_rank, "constant:t=" + "9" * 5000, None),
    (_integer_flag, "16", 16),
    (_integer_flag, "9" * 4300, int("9" * 4300)),
    (_integer_flag, "9" * 5000, None),
    (_tolerance, "1e-9", 1e-9),
    (_tolerance, "1E-9", 1e-9),
    (_tolerance, "0.0001", 1e-4),
    (_tolerance, ".5", 0.5),
    (_tolerance, "1_0e-9", None),
    (_tolerance, "\N{ARABIC-INDIC DIGIT ONE}e-9", None),
    (_tolerance, "1/2", None),
    (_tolerance, " 1e-9", None),
    (_tolerance, "inf", None),
    (_tolerance, "nan", None),
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
