"""Each line of the equivalent-mutant ledger, ``data/mutants.txt``, names a
mutation site that ``mutation_sweep`` still finds in ``src``.

No mutant is run: the sites of the named function alone are listed with
``mutation_sweep.mutate``, and one of them must carry the line's operator and
source text, so a verdict cannot outlive the code it was given for.
"""

import pytest
from mutation_sweep import LEDGER, PACKAGE, ROOT, ledger_key, mutate, read_ledger

ENTRIES = read_ledger()


def sites(module, qualname):
    """The ledger key of every site in the body of ``module.qualname``."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    wanted = [f"{module}.{qualname}"]
    count = mutate(module, source, wanted)[2]
    return {ledger_key(mutate(module, source, wanted, target)[1]) for target in range(count)}


def test_each_line_is_one_entry():
    lines = [line for line in LEDGER.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    assert ENTRIES and len(lines) == len(ENTRIES)  # no key given twice


@pytest.mark.parametrize("key", ENTRIES, ids=lambda key: f"{key[0]}.{key[1]}:{key[4]}")
def test_line_names_a_live_site(key):
    assert key in sites(*key[:2])


def test_stale_line_names_no_site():
    module, qualname, operator, before, after = next(iter(ENTRIES))
    assert (module, qualname, operator, before + " ", after) not in sites(module, qualname)
    assert not sites(module, qualname + "_gone")
