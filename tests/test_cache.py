"""On-disk basis cache."""

import os

import pytest

from e8jacobi import cache
from e8jacobi.cache import DiskStore
from e8jacobi.construct import jacobi_basis
from e8jacobi.generators import meromorphic_images
from e8jacobi.grading import AB, Frac, Poly


@pytest.fixture
def fresh_tables_digest():
    cache._tables_digest.cache_clear()
    yield
    cache._tables_digest.cache_clear()


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        # the certificates of J_{-26,8} have S_l parts as well as remainders
        store = DiskStore(str(tmp_path))
        for k, m in ((-16, 5), (-26, 8)):
            basis = jacobi_basis(k, m)
            store.save(k, m, basis)
            loaded = store.load(k, m)
            assert loaded is not None
            assert loaded.target == basis.target
            assert loaded.forms == basis.forms
            assert loaded.certificates == basis.certificates
        assert any(c.s_parts for c in loaded.certificates)

    def test_missing_returns_none(self, tmp_path):
        assert DiskStore(str(tmp_path)).load(2, 3) is None

    def test_corrupt_returns_none(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.save(4, 1, jacobi_basis(4, 1))
        (path,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        with open(os.path.join(tmp_path, path), "w") as fh:
            fh.write("{ not json")
        assert store.load(4, 1) is None

    def test_malformed_returns_none(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.save(4, 1, jacobi_basis(4, 1))
        (path,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        for doc in ('{"forms": []}', '[]', '{"forms": [], "certificates": 1}',
                    '{"forms": [[]], "certificates": []}'):
            with open(os.path.join(tmp_path, path), "w") as fh:
                fh.write(doc)
            assert store.load(4, 1) is None, doc

    def test_altered_image_misses(self, tmp_path, monkeypatch,
                                  fresh_tables_digest):
        store = DiskStore(str(tmp_path))
        store.save(4, 1, jacobi_basis(4, 1))
        monkeypatch.setitem(meromorphic_images(), "b1",
                            Frac.normalized(Poly.gen(AB, "A1").scale(-3), 1, 0))
        cache._tables_digest.cache_clear()
        assert store.load(4, 1) is None
        monkeypatch.undo()
        cache._tables_digest.cache_clear()
        assert store.load(4, 1) is not None

    def test_keys_distinguish_targets(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.save(4, 1, jacobi_basis(4, 1))
        store.save(-4, 2, jacobi_basis(-4, 2))
        files = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        assert len(files) == 2
        assert store.load(4, 1).forms == jacobi_basis(4, 1).forms
        assert store.load(-4, 2).forms == jacobi_basis(-4, 2).forms

    def test_no_stray_temp_files(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.save(0, 0, jacobi_basis(0, 0))
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_creates_root(self, tmp_path):
        root = os.path.join(str(tmp_path), "a", "b")
        DiskStore(root)
        assert os.path.isdir(root)
