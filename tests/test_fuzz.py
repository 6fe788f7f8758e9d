"""Fuzz tests of the three text parsers.

On any text, each parser raises only its declared error type, and whatever
it accepts serializes to canonical text that parses back to the same object.
Inputs are arbitrary strings, valid files with random edits spliced in, and
valid files with one edit that often leaves them valid (so the accept path
is fuzzed too).
Every decimal token of the valid files is also respelled in ways int()
would read, each of which its parser must refuse.
"""

from __future__ import annotations

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspack import bench, cnf, packing, reduction


def _valid_files():
    rng = random.Random(5)
    instances, witnesses, formulas = [], [], []
    for _ in range(6):
        n = rng.randint(1, 5)
        formula = bench.make_formula(max(n, 3), rng.randint(1, 6), rng.randrange(1 << 30), False)
        r = rng.choice((1, 2, 3))
        inst, wit = reduction.reduce_to_packing(formula, r, dull_width=rng.choice((0, 2)) if r > 1 else 0)
        instances.append(packing.serialize_instance(inst))
        witnesses.append(reduction.witness_to_text(wit))
        formulas.append(cnf.to_dimacs(formula))
    contradiction = cnf.CnfFormula(num_vars=1, clauses=((1,), (-1,)))
    witnesses.append(reduction.witness_to_text(reduction.reduce_to_packing(contradiction, 3, dull_width=0)[1]))
    instances.append("p sp 4 3 2\ns 0\ns 2 0 3\ns 1 2\n")
    formulas.append("c comment\np cnf 3 2\n1 -2\n3 0 -1 0\n")
    return instances, witnesses, formulas


INSTANCE_TEXTS, WITNESS_TEXTS, DIMACS_TEXTS = _valid_files()

# Characters the grammars use, some they do not, and some that int() or
# str.split() treat specially.
EDIT_ALPHABET = "0123456789 -+_\n\t\r\x0bspgwadcfnx٣ "


@st.composite
def edited(draw, texts):
    """A valid text with a few slices replaced by short random strings."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = min(len(text), start + draw(st.integers(min_value=0, max_value=3)))
        text = text[:start] + draw(st.text(alphabet=EDIT_ALPHABET, max_size=4)) + text[end:]
    return text


# The field of each header that counts the lines below it, by the header's
# first token: sets ("p sp") or clauses ("p cnf") after "p", groups after "w".
COUNT_FIELDS = {"p": 3, "w": 2}


@st.composite
def one_edit(draw, texts):
    """A valid text with one edit, which often leaves it valid.

    The edit respells a decimal token with a leading zero ("07", "-07"),
    adds or subtracts 1 from one, drops or duplicates a line, or splices in a
    line of another valid text. A line dropped or added below the header
    moves the header's line count with it.
    """
    lines = draw(st.sampled_from(texts)).splitlines(keepends=True)
    header = next(j for j, line in enumerate(lines) if line[0] in COUNT_FIELDS)
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    edit = draw(st.sampled_from(("respell", "shift", "drop", "duplicate", "splice")))
    if edit in ("respell", "shift"):
        tokens = list(re.finditer(r"-?[0-9]+", lines[i]))
        if tokens:
            token = draw(st.sampled_from(tokens))
            if edit == "respell":
                value = re.sub(r"^-?", r"\g<0>0", token.group())
            else:
                value = str(int(token.group()) + draw(st.sampled_from((-1, 1))))
            lines[i] = lines[i][: token.start()] + value + lines[i][token.end() :]
        return "".join(lines)
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines.insert(i, draw(st.sampled_from(draw(st.sampled_from(texts)).splitlines(keepends=True))))
    if i > header:
        fields = lines[header].rstrip("\n").split(" ")
        k = COUNT_FIELDS[fields[0]]
        fields[k] = str(int(fields[k]) + (-1 if edit == "drop" else 1))
        lines[header] = " ".join(fields) + "\n"
    return "".join(lines)


def inputs(texts):
    return st.one_of(
        st.text(max_size=120), st.text(alphabet=EDIT_ALPHABET, max_size=120), edited(texts), one_edit(texts)
    )


@given(inputs(INSTANCE_TEXTS))
@settings(max_examples=400, deadline=None)
def test_parse_instance_raises_only_its_error_and_round_trips(text):
    try:
        instance = packing.parse_instance(text)
    except packing.InstanceFormatError:
        return
    canonical = packing.serialize_instance(instance)
    assert packing.parse_instance(canonical) == instance
    assert packing.serialize_instance(packing.parse_instance(canonical)) == canonical


def _parse_outcome(text):
    """The instance parse_instance reads from text, or the message of its error."""
    try:
        return packing.parse_instance(text)
    except packing.InstanceFormatError as exc:
        return str(exc)


@given(inputs(INSTANCE_TEXTS))
@settings(max_examples=400, deadline=None)
def test_parse_instance_outcome_and_round_trip_survive_minimum_blocks(text):
    # One character per read block and one set line per written block put a
    # block edge everywhere; the instance, or the error and its line number,
    # stays the same. So does an empty ID table, which sends every set line
    # to the one reader that checks its fields.
    outcome = _parse_outcome(text)
    with mock.patch.object(packing, "_CACHED_IDS", 0):
        assert _parse_outcome(text) == outcome
    with mock.patch.multiple(packing, _READ_CHARS=1, _WRITE_BYTES=1):
        assert _parse_outcome(text) == outcome
        if isinstance(outcome, str):
            return
        canonical = packing.serialize_instance(outcome)
        assert packing.parse_instance(canonical) == outcome
        assert packing.serialize_instance(packing.parse_instance(canonical)) == canonical


def _witness_outcome(text):
    """The witness witness_from_text reads from text, or the message of its error."""
    try:
        return reduction.witness_from_text(text)
    except reduction.WitnessFormatError as exc:
        return str(exc)


def reference_witness_outcome(text):
    """_witness_outcome of a parser that splits the whole text into token lists
    before it reads a field, counting the group lines first."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines:
        return "empty witness text"
    head, *groups = lines
    try:
        if len(head) != 4 or head[0] != "w":
            raise ValueError
        n, r, d = map(cnf.read_int, head[1:])
    except ValueError:
        return f"malformed header line: {' '.join(head)!r}"
    if len(groups) != r:
        return f"{len(groups)} group lines for r = {r}"
    domains, codes = [], []
    for g, line in enumerate(groups):
        try:
            if len(line) < 2 or line[0] != "g":
                raise ValueError
            k, *fields = map(cnf.read_int, line[1:])
        except ValueError:
            return f"malformed group line: {' '.join(line)!r}"
        if not 0 <= k <= len(fields):
            return f"group {g}: domain size {k} is not in [0, {len(fields)}]"
        domains.append(tuple(fields[:k]))
        codes.append(tuple(fields[k:]))
    try:
        return reduction.WitnessMap(num_vars=n, dull_width=d, domains=tuple(domains), codes=tuple(codes))
    except ValueError as exc:
        return str(exc)


@given(inputs(WITNESS_TEXTS))
@settings(max_examples=400, deadline=None)
def test_witness_from_text_raises_only_its_error_and_round_trips(text):
    # Read a line at a time, with a block edge after every character too,
    # the parser gives the witness or the message that reading the whole text
    # at once gives.
    outcome = _witness_outcome(text)
    assert outcome == reference_witness_outcome(text)
    with mock.patch.object(packing, "_READ_CHARS", 1):
        assert _witness_outcome(text) == outcome
    if isinstance(outcome, str):
        return
    witness = outcome
    canonical = reduction.witness_to_text(witness)
    assert reduction.witness_from_text(canonical) == witness
    assert reduction.witness_to_text(reduction.witness_from_text(canonical)) == canonical


@given(inputs(DIMACS_TEXTS))
@settings(max_examples=400, deadline=None)
def test_parse_dimacs_raises_only_its_error_and_round_trips(text):
    try:
        formula = cnf.parse_dimacs(text)
    except cnf.DimacsError:
        return
    canonical = cnf.to_dimacs(formula)
    assert cnf.parse_dimacs(canonical) == formula
    assert cnf.to_dimacs(cnf.parse_dimacs(canonical)) == canonical


def test_valid_files_parse():
    for text in INSTANCE_TEXTS:
        assert packing.serialize_instance(packing.parse_instance(text)) == text
    for text in WITNESS_TEXTS:
        assert reduction.witness_to_text(reduction.witness_from_text(text)) == text
    for text in DIMACS_TEXTS[:-1]:
        assert cnf.to_dimacs(cnf.parse_dimacs(text)) == text


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def respellings(text):
    """text with one decimal token respelled, for each token and each spelling int() reads as its value.

    The spellings are "+v" (for an unsigned token), the same digits in
    Arabic-Indic, and "_" before the last digit (for two or more digits).
    """
    lines = text.split("\n")
    for i, line in enumerate(lines):
        tokens = line.split(" ")
        for j, token in enumerate(tokens):
            if not re.fullmatch(r"-?[0-9]+", token):
                continue
            spellings = [token.translate(ARABIC_INDIC_DIGITS)]
            if not token.startswith("-"):
                spellings.append("+" + token)
            if len(token.lstrip("-")) >= 2:
                spellings.append(token[:-1] + "_" + token[-1])
            for spelling in spellings:
                respelled = " ".join(tokens[:j] + [spelling] + tokens[j + 1 :])
                yield "\n".join(lines[:i] + [respelled] + lines[i + 1 :])


@pytest.mark.parametrize(
    "texts, parse, error",
    [
        (INSTANCE_TEXTS, packing.parse_instance, packing.InstanceFormatError),
        (WITNESS_TEXTS, reduction.witness_from_text, reduction.WitnessFormatError),
        (DIMACS_TEXTS, cnf.parse_dimacs, cnf.DimacsError),
    ],
    ids=["instance", "witness", "dimacs"],
)
def test_every_respelled_integer_is_refused(texts, parse, error):
    accepted = []
    checked = 0
    for text in texts:
        for respelled in respellings(text):
            checked += 1
            try:
                parse(respelled)
            except error:
                continue
            accepted.append(respelled)
    assert checked > 100
    assert accepted == []
