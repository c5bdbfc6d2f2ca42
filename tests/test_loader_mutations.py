"""Every JSON loader, fed a mutated writer output, returns or raises its
module's error: never a bare KeyError, TypeError, AttributeError or
IndexError, and never a plain ValueError.

Each JSON path of each payload is mutated in turn, the top included: its
key or list item is deleted, or its value is replaced by each of ``VALUES``.
There is no randomness: every mutation of every payload is loaded.
"""

import json
from fractions import Fraction

import pytest

from donaldson.constructions import blow_up, catalog, entry_from_json, entry_to_json
from donaldson.exppoly import MARKERS, ExpPolynomial
from donaldson.gaussian import GaussianRational
from donaldson.gluing import (
    GluingSpec,
    glue,
    glue_conjectural,
    glue_torus,
    glued_from_json,
    glued_to_json,
)

VALUES = (None, True, 1.5, "x", "1/0", [], {}, -1, 0, 10**30, [[1]])
DELETE = object()


def _paths(value, path=()):
    """Every JSON path inside ``value``, parents before their children."""
    if type(value) is dict:
        items = value.items()
    elif type(value) is list:
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutants(payload):
    """(path, new value, mutated copy) for each path and each mutation."""
    text = json.dumps(payload)
    yield from (((), new, new) for new in VALUES)
    for path in _paths(payload):
        for new in (DELETE, *VALUES):
            data = json.loads(text)
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            if new is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
            yield path, new, data


def _escapes(load, payload) -> list[str]:
    """The mutations whose load raises anything but a package ValueError."""
    assert load(json.loads(json.dumps(payload))) is not None
    bad = []
    for path, new, data in _mutants(payload):
        try:
            load(data)
        except Exception as exc:
            error = type(exc)
            if not (issubclass(error, ValueError) and error.__module__.startswith("donaldson.")):
                where = "".join(f"[{key!r}]" for key in path)
                what = "deleted" if new is DELETE else f"= {new!r}"
                bad.append(f"{where} {what}: {error.__name__}: {exc}")
    return bad


def _exppoly(marker):
    terms = ((GaussianRational(2), GaussianRational(Fraction(1, 4))),
             (GaussianRational(0, -1), GaussianRational(3, Fraction(-1, 2))))
    return ExpPolynomial(marker, terms, None if marker == "none" else Fraction(3, 2))


PAYLOADS = {
    **{f"entry-{name}": (entry_from_json, lambda name=name: entry_to_json(catalog(name)))
       for name in ("B2", "K3", "C2")},
    "entry-K3.bl1": (entry_from_json, lambda: entry_to_json(blow_up(catalog("K3")))),
    "glued-standard": (glued_from_json,
                       lambda: glued_to_json(glue(GluingSpec(catalog("B2"), catalog("B2"))))),
    "glued-torus": (glued_from_json,
                    lambda: glued_to_json(glue_torus(GluingSpec(catalog("K3"), catalog("K3"))))),
    "glued-stabilized": (glued_from_json, lambda: glued_to_json(
        glue_conjectural(GluingSpec(catalog("C2"), catalog("C2"))))),
    # D^2 travels with its marker: a marked payload has "q", an unmarked one has none
    **{f"exppoly-{marker}-{'no-q' if marker == 'none' else 'q'}":
       (ExpPolynomial.from_json, lambda marker=marker: _exppoly(marker).to_json())
       for marker in MARKERS},
}


@pytest.mark.parametrize("name", PAYLOADS)
def test_a_mutated_file_loads_or_raises_its_module_error(monkeypatch, name):
    monkeypatch.delenv("DONALDSON_CATALOG_DIR", raising=False)
    load, payload = PAYLOADS[name]
    bad = _escapes(load, payload())
    assert not bad, f"{len(bad)} loads escaped:\n" + "\n".join(bad[:20])
