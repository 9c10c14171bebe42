"""detlint — the determinism & reproducibility rule family.

The reproduction's core invariant is that every result is a pure
function of ``(seed, config)``; the parallel study runner even promises
byte-identical output across worker counts.  detlint machine-checks the
coding discipline that invariant rests on:

======  ==========================================================
DET001  ``random.*`` / bare ``random.Random(...)`` outside the
        ``derive_rng``/``derive_seed`` discipline
DET002  wall-clock reads (``time.time``, ``datetime.now`` …) in
        library code
DET003  set iteration order leaking into ordered output
DET004  builtin ``hash()`` (``PYTHONHASHSEED``-salted)
DET005  filesystem enumeration without ``sorted()``
DET006  ``os.environ`` reads outside ``repro.core.config``
======  ==========================================================

Waive a single site with ``# detlint: ignore[DET001] -- reason``;
grandfather legacy debt in ``.lint-baseline.json`` (baselined findings
warn, new findings fail).  Run via ``python -m repro lint``, which runs
these rules over its one parse of the tree alongside the other three
families.
"""

from repro.devtools.detlint.rules import RULES, run

__all__ = ["RULES", "run"]
