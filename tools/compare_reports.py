"""Compare two sets of qcond JSON reports: verdicts must match, numbers may drift by 1e-13.

Usage::

    python tools/compare_reports.py A B

A and B are two report files, or two directories whose ``*.json`` files
(searched recursively) are paired by relative path.  A report is what
``qcond verify --json`` or ``qcond run --json`` writes, or the ``to_json()``
of one suite or scene report.

The two sides must have the same structure: the same keys, the same list
lengths, the same strings, booleans and integers.  So pass/fail verdicts,
pass and failure counts and witness counts must match, or the comparison
fails and names the place.  Other numbers may differ by at most 1e-13.  A
bare real ``x`` and a pair ``[x, y]`` are read as the same complex number:
reports now write every complex value as pairs, but reports written before
that wrote an entry whose imaginary part was exactly 0 as a bare real, so a
new report set still compares with an old one.  A scene report's ``path``
is ignored: it names the file the scene was read from.
The tool also counts the pairs whose files are byte-identical.

Exit status: 0 when the reports agree, 1 when they differ, 2 on bad input.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

MAX_DRIFT = 1e-13
SHOWN = 20


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_complex(x):
    """x as a complex number when it is a real or an [re, im] pair, else None."""
    if _is_number(x):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(_is_number(p) for p in x):
        return complex(x[0], x[1])
    return None


class Comparison:
    def __init__(self) -> None:
        self.problems: list[str] = []
        self.drift = 0.0
        self.drift_at = ""

    def walk(self, a, b, where: str) -> None:
        if _is_int(a) and _is_int(b):
            if a != b:
                self.problems.append(f"{where}: {a} != {b}")
        elif (_is_number(a) or _is_number(b)) and None not in (_as_complex(a), _as_complex(b)):
            self._drift(_as_complex(a), _as_complex(b), where)
        elif isinstance(a, dict) and isinstance(b, dict):
            self._dict(a, b, where)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.problems.append(f"{where}: {len(a)} entries != {len(b)} entries")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.walk(x, y, f"{where}[{i}]")
        elif type(a) is not type(b) or a != b:
            self.problems.append(f"{where}: {_short(a)} != {_short(b)}")

    def _dict(self, a: dict, b: dict, where: str) -> None:
        ignored = {"path"} if "scene" in a and "checks" in a else set()
        only_a, only_b = set(a) - set(b) - ignored, set(b) - set(a) - ignored
        if only_a or only_b:
            self.problems.append(f"{where}: keys only in A {sorted(only_a)}, only in B {sorted(only_b)}")
        for key in sorted((set(a) & set(b)) - ignored):
            self.walk(a[key], b[key], f"{where}.{key}")

    def _drift(self, x: complex, y: complex, where: str) -> None:
        if x == y or (_nan(x) and _nan(y)):
            return
        drift = abs(x - y)
        if not drift <= MAX_DRIFT:
            self.problems.append(f"{where}: {_short(x)} != {_short(y)} (drift {drift:.3g})")
        elif drift > self.drift:
            self.drift, self.drift_at = drift, where


def _nan(z: complex) -> bool:
    return math.isnan(z.real) or math.isnan(z.imag)


def _short(x) -> str:
    text = repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


def _bad_input(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _bad_input(f"cannot read {path}: {exc}")


def _pairs(a: Path, b: Path) -> list[tuple[str, Path | None, Path | None]]:
    if a.is_file() and b.is_file():
        return [(a.name, a, b)]
    if a.is_dir() and b.is_dir():
        files_a = {str(p.relative_to(a)): p for p in a.rglob("*.json")}
        files_b = {str(p.relative_to(b)): p for p in b.rglob("*.json")}
        return [(name, files_a.get(name), files_b.get(name)) for name in sorted(files_a | files_b)]
    _bad_input("give two report files or two directories of them")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        _bad_input("usage: python tools/compare_reports.py A B")
    cmp = Comparison()
    pairs = _pairs(Path(argv[0]), Path(argv[1]))
    identical = 0
    for name, a, b in pairs:
        if a is None or b is None:
            cmp.problems.append(f"{name}: present only in {'B' if a is None else 'A'}")
            continue
        cmp.walk(_load(a), _load(b), name)
        identical += a.read_bytes() == b.read_bytes()
    print(f"compared {len(pairs)} report pair(s), {identical} byte-identical")
    if cmp.drift:
        print(f"largest numeric drift {cmp.drift:.3g} at {cmp.drift_at}")
    else:
        print("no numeric drift")
    if cmp.problems:
        for line in cmp.problems[:SHOWN]:
            print(f"  {line}")
        if len(cmp.problems) > SHOWN:
            print(f"  ... and {len(cmp.problems) - SHOWN} more")
        print(f"DIFFERENT: {len(cmp.problems)} difference(s)")
        return 1
    print("same verdicts and counts, drift within 1e-13")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
