"""The equivalent-mutant list of tests/mutate.py against today's modules."""

import mutate


def test_every_listed_equivalent_mutant_is_a_site_of_its_module():
    # an entry is keyed by its line's text, so an edit to that line would leave it stale
    for module in {entry[0] for entry in mutate.EQUIVALENT}:
        source = (mutate.ROOT / "src" / "fglcalc" / f"{module}.py").read_text()
        keys = {key for _, key in mutate._site_names(module, source).values()}
        assert [entry for entry in mutate.EQUIVALENT if entry[0] == module and entry not in keys] == []
