"""Fuzz the JSON decoders and ``topolab game solve`` with hostile input.

A decoder may succeed or raise ValueError, nothing else; the game command
may exit 0 or 2 and must never raise.  Inputs are arbitrary JSON values,
objects shaped like the real ones, and valid encodings with one node of
the JSON tree replaced, which reaches the checks deep inside each decoder.
The runs are derandomized, so every run tries the same examples.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from topolab import cli, jsonio
from topolab.randgen import random_family, random_quotient_chain, random_space, rng_for
from topolab.spaces import SpaceMap

FUZZ = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

points = st.integers(min_value=-1, max_value=5)
scalars = (
    st.none()
    | st.booleans()
    | points
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=6,
)
# Cheap non-conforming values for the fields of the shaped objects.
junk = scalars | st.lists(scalars, max_size=3)
point_lists = st.lists(points, max_size=5)
space_like = st.fixed_dictionaries(
    {"points": points | junk, "opens": st.lists(point_lists | junk, max_size=8)}
)


def _valid_space(seed, n):
    return jsonio.encode_space(random_space(rng_for(seed, "fuzz"), n))


def _valid_family(seed, n):
    rng = rng_for(seed, "fuzz")
    return jsonio.encode_family(random_family(rng, random_space(rng, n)))


def _valid_map(seed, n):
    rng = rng_for(seed, "fuzz")
    dom, cod = random_space(rng, n), random_space(rng, max(n - 1, 1))
    assign = [rng.randrange(cod.point_count) for _ in range(n)]
    return jsonio.encode_map(SpaceMap(dom, cod, assign))


def _valid_system(seed, n):
    return jsonio.encode_system(random_quotient_chain(rng_for(seed, "fuzz"), n, 1 + seed % 3))


VALID = {
    jsonio.decode_space: _valid_space,
    jsonio.decode_family: _valid_family,
    jsonio.decode_map: _valid_map,
    jsonio.decode_system: _valid_system,
}
LIKE = {
    jsonio.decode_space: space_like,
    jsonio.decode_family: st.fixed_dictionaries(
        {"space": space_like, "members": st.lists(point_lists | junk, max_size=5)}
    ),
    jsonio.decode_map: st.fixed_dictionaries(
        {"domain": space_like, "codomain": space_like, "assign": point_lists | junk}
    ),
    jsonio.decode_system: st.fixed_dictionaries(
        {
            "poset": st.fixed_dictionaries(
                {
                    "elements": st.lists(st.text(max_size=2), max_size=4) | junk,
                    "leq": st.lists(st.lists(points, max_size=3), max_size=8) | junk,
                }
            ),
            "spaces": st.dictionaries(st.sampled_from("0123"), space_like, max_size=4),
            "bonds": st.dictionaries(
                st.sampled_from(["0<=1", "1<=0", "0<=0", "1<=2", "0<=2", "x", "9<=9"]),
                point_lists | junk,
                max_size=4,
            ),
        }
    ),
}


def _paths(value, prefix=()):
    """Every path into a JSON tree, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _replaced(value[head], rest, new)}
    return [_replaced(v, rest, new) if k == head else v for k, v in enumerate(value)]


@st.composite
def hostile(draw, decoder):
    """An input for the decoder: arbitrary, shaped like it, or one edit
    away from a valid encoding."""
    kind = draw(st.sampled_from(("any", "like", "edited")))
    if kind == "any":
        return draw(json_values)
    if kind == "like":
        return draw(LIKE[decoder])
    valid = VALID[decoder](draw(st.integers(0, 10**6)), draw(st.integers(1, 4)))
    path = draw(st.sampled_from(list(_paths(valid))))
    return _replaced(valid, path, draw(json_values))


@st.composite
def decoder_inputs(draw):
    decoder = draw(st.sampled_from(list(VALID)))
    return decoder, draw(hostile(decoder))


@FUZZ
@given(decoder_inputs())
def test_decoders_raise_only_value_error(case):
    decoder, value = case
    try:
        decoder(value)
    except ValueError:
        pass


def _game_texts():
    as_json = hostile(jsonio.decode_space).map(json.dumps)
    return as_json | st.text(max_size=30)


@settings(FUZZ, max_examples=100)
@given(_game_texts())
def test_game_solve_exits_0_or_2(text):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["game", "solve", "--in", path])
    finally:
        os.unlink(path)
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
