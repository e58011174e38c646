"""Shared fixtures.

Root systems, fusion contexts and S-matrices are cached at session scope.
A fusion context is not immutable: it carries its product table and the
memo of box points its alcove reductions have walked, so a test whose
claim depends on what was computed before it (a walk count, a reduction
cap) builds a fresh FusionContext instead.
"""

import pytest

from fusionq import FusionContext, build_root_system, build_smatrix


@pytest.fixture(scope="session")
def make_rs():
    cache = {}

    def get(family, rank):
        key = (family, rank)
        if key not in cache:
            cache[key] = build_root_system(family, rank)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def make_ctx(make_rs):
    cache = {}

    def get(family, rank, level):
        key = (family, rank, level)
        if key not in cache:
            cache[key] = FusionContext(make_rs(family, rank), level)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def make_sm(make_ctx):
    cache = {}

    def get(family, rank, level):
        key = (family, rank, level)
        if key not in cache:
            cache[key] = build_smatrix(make_ctx(family, rank, level))
        return cache[key]

    return get
