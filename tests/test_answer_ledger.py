"""The answer ledger: every op output of the benchmark workloads, hashed.

`tests/answer_ledger.json` holds, for the `products` and `dense_products`
ops at seeds 41 and 13 and the `classify` ops at seeds 41-50, one sha256
digest per chunk of CHUNK consecutive ops, over the canonical texts of their
outputs.  A change that alters any answer changes a digest and fails here.
The ledger changes only with a change that means to alter an answer, and
the change log then names each entry that moved and why.  To add the
entries of ENTRIES that the ledger lacks:

    PYTHONPATH=src python tests/test_answer_ledger.py --write

`--write` recomputes every existing entry too, and if any digest would
change it writes nothing and exits 1, naming the entries that moved.  A
change that means to alter answers rewrites them with `--rewrite`.
"""

import hashlib
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from moyal.linalg import Matrix
from moyal.poly import Poly
from moyal.scalars import Coefficient, MuPoly

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

LEDGER = Path(__file__).with_name("answer_ledger.json")
CHUNK = 100
ENTRIES = [("products", 41), ("dense_products", 41), ("products", 13), ("dense_products", 13)] + [
    ("classify", seed) for seed in range(41, 51)
]


def canonical_text(value) -> str:
    """One exact text per value, the same for equal values and different
    for different ones.

    The text is a term of a small grammar: each kind of value opens with
    its own tag, a composite brackets its parts and separates them by
    commas, and a string is quoted by `repr`, so a text parses back to one
    tree.  The leaves are canonical fields: a Coefficient's numerator and
    denominator, each the normalised ints of a MuPoly, which scalars.py
    makes unique per value; a Poly's variable names and its terms sorted by
    exponent tuple; a dataclass's compared fields, by name, so a field left
    out of `==` (a trace, say) is left out here too.  Equal values have
    equal fields and so one text; different values differ in some field,
    and so in the tree the text parses back to.  A type not listed here is
    an error, never a `repr`.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, Coefficient):
        return f"C({canonical_text(value.num)},{canonical_text(value.den)})"
    if isinstance(value, MuPoly):
        return f"M({canonical_text(value.re)},{canonical_text(value.im)},{value.d})"
    if isinstance(value, Poly):
        terms = ",".join(f"{canonical_text(e)}:{canonical_text(c)}" for e, c in sorted(value.terms.items()))
        return f"P({canonical_text(value.space.names)},{{{terms}}})"
    if isinstance(value, Matrix):
        return f"X({canonical_text(value.rows)})"
    if is_dataclass(value):
        parts = (f"{f.name}={canonical_text(getattr(value, f.name))}" for f in fields(value) if f.compare)
        return f"{type(value).__name__}({','.join(parts)})"
    if isinstance(value, tuple):
        return f"({','.join(map(canonical_text, value))})"
    if isinstance(value, list):
        return f"[{','.join(map(canonical_text, value))}]"
    if isinstance(value, frozenset):
        return f"F{{{','.join(sorted(map(canonical_text, value)))}}}"
    raise TypeError(f"no canonical text for {type(value).__name__}")


def digests(workload, seed):
    """The sha256 of each chunk of CHUNK ops: their texts, one a line."""
    texts = [canonical_text(op.run()) for op in workloads.BUILDERS[workload](seed)]
    return [
        hashlib.sha256("\n".join(texts[i:i + CHUNK]).encode()).hexdigest()
        for i in range(0, len(texts), CHUNK)
    ]


def ledger_key(workload, seed):
    return f"{workload}/{seed}"


@pytest.mark.parametrize("workload, seed", ENTRIES, ids=[ledger_key(*e) for e in ENTRIES])
def test_answers_match_the_ledger(workload, seed):
    assert digests(workload, seed) == json.loads(LEDGER.read_text())[ledger_key(workload, seed)]


def test_the_ledger_covers_exactly_its_entries():
    assert set(json.loads(LEDGER.read_text())) == {ledger_key(*e) for e in ENTRIES}


def test_canonical_text_separates_what_repr_might_not():
    """Values that print alike get different texts, and equal values built
    by different routes get one text."""
    one, mu = Coefficient.from_int(1), Coefficient.from_ints((0, 1), (), 1)
    assert canonical_text((one + mu) / mu) == canonical_text(one + one / mu)
    assert canonical_text((1, 2)) != canonical_text([1, 2]) != canonical_text(frozenset({1, 2}))
    assert canonical_text(("a,b",)) != canonical_text(("a", "b"))
    assert canonical_text(mu) != canonical_text(mu.scale_fraction(Fraction(2, 3)))
    with pytest.raises(TypeError):
        canonical_text(1.0)


def test_write_adds_missing_entries_and_refuses_to_move_one(tmp_path, monkeypatch, capsys):
    """`--write` fills a missing entry and leaves the rest; an entry whose
    digests would change makes it write nothing and exit 1, naming the
    entry; `--rewrite` moves it."""
    ledger = tmp_path / "ledger.json"
    monkeypatch.setitem(globals(), "LEDGER", ledger)
    monkeypatch.setitem(globals(), "digests", lambda workload, seed: [f"{workload}-{seed}"])
    fresh = {ledger_key(*e): [f"{e[0]}-{e[1]}"] for e in ENTRIES}
    first, moved = ledger_key(*ENTRIES[0]), ledger_key(*ENTRIES[1])
    ledger.write_text(json.dumps({k: v for k, v in fresh.items() if k != first}))
    assert write_ledger(rewrite=False) == 0
    assert json.loads(ledger.read_text()) == fresh
    stale = json.dumps({**fresh, moved: ["old"]})
    ledger.write_text(stale)
    assert write_ledger(rewrite=False) == 1
    assert ledger.read_text() == stale
    assert moved in capsys.readouterr().err
    assert write_ledger(rewrite=True) == 0
    assert json.loads(ledger.read_text()) == fresh


def write_ledger(rewrite: bool) -> int:
    """Fill the ledger's missing entries, or with `rewrite` every entry; 0 on success.

    Without `rewrite` an existing entry whose digests would change is an
    error: the ledger is left as it was and the exit status is 1.
    """
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    new = {ledger_key(*e): digests(*e) for e in ENTRIES}
    moved = [key for key, value in new.items() if key in old and old[key] != value]
    if rewrite:
        old = {}
    elif moved:
        print(f"answers changed in {', '.join(moved)}; use --rewrite if that is meant", file=sys.stderr)
        return 1
    LEDGER.write_text(json.dumps({**old, **new}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--rewrite"]):
        sys.exit("usage: test_answer_ledger.py --write | --rewrite")
    sys.exit(write_ledger(sys.argv[1] == "--rewrite"))
