import pytest

from qbernoulli import qcore


@pytest.fixture
def cold_store():
    """cold_store(ctx) drops the cache store of ctx's q and alpha, which every precision
    shares, and returns ctx: its rows and memos then start empty."""

    def drop(ctx):
        with qcore.cache_lock:
            qcore._contexts.pop(ctx.store_key, None)
        return ctx

    return drop
