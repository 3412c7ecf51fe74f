"""Mutated valid documents: parsing either succeeds or raises SchemaError,
promptly, whatever the mutation."""

import copy
import json
import pathlib
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from chaincomm.jsonio import Document, SchemaError, parse_document

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DOCUMENTS = {
    name: json.loads((FIXTURES / name).read_text(encoding="utf-8")) for name in ("q_exact.json", "f2_window.json")
}
TIME_BOUND_S = 2.0

# replacement values of every JSON type, with sizes and magnitudes well
# outside the fixtures' own
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["1/0", "2/4", "3/1", "-0", "Q", "Fp", "pointwise", "1", "0"]),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=4),
    st.lists(st.lists(st.sampled_from([0, 1, "1", "1/2"]), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "p", "type", "pairs"]), st.integers(-3, 3), max_size=2),
)


def _paths(node, prefix=()):
    """Every location in a JSON value, the root first."""
    yield prefix, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _parent(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        located = list(_paths(doc))
        kind = draw(st.sampled_from(["drop", "retype", "resize", "swap"]))
        if kind == "drop":
            keyed = [node for _, node in located if isinstance(node, dict) and node]
            if keyed:
                node = draw(st.sampled_from(keyed))
                del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "retype":
            path, _ = draw(st.sampled_from(located[1:]))
            _parent(doc, path)[path[-1]] = draw(JUNK)
        elif kind == "resize":
            lists = [node for _, node in located if isinstance(node, list)]
            if lists:
                node = draw(st.sampled_from(lists))
                if node and draw(st.booleans()):
                    node.pop(draw(st.integers(min_value=0, max_value=len(node) - 1)))
                else:
                    node.append(copy.deepcopy(node[-1]) if node else draw(JUNK))
        else:
            leaves = [path for path, node in located if path and not isinstance(node, (dict, list))]
            if len(leaves) >= 2:
                a, b = draw(st.sampled_from(leaves)), draw(st.sampled_from(leaves))
                pa, pb = _parent(doc, a), _parent(doc, b)
                pa[a[-1]], pb[b[-1]] = pb[b[-1]], pa[a[-1]]
    return doc


@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_mutated_document_parses_or_raises_schema_error(doc):
    start = time.perf_counter()
    try:
        parsed = parse_document(doc)
    except SchemaError as exc:
        assert exc.violations and all(v.code for v in exc.violations)
    else:
        assert isinstance(parsed, Document)
    assert time.perf_counter() - start < TIME_BOUND_S
