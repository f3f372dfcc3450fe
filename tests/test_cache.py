"""On-disk basis cache."""

import json
import math
import os
from itertools import chain

import pytest

from e8jacobi import cache
from e8jacobi.ansatz import enumerate_monomials
from e8jacobi.cache import CacheError, DiskStore
from e8jacobi.construct import (Certificate, JacobiBasis,
                                certificate_identity, certify, jacobi_basis,
                                profile_weights)
from e8jacobi.generators import _lifted_columns, meromorphic_images
from e8jacobi.grading import AB, BiDegree, Frac, Poly, S_ALPHABET, ab
from e8jacobi.serialize import (basis_from_json, basis_to_json,
                                certificate_to_json, poly_to_compact)

from helpers import int_image, remainder, rows, s_parts


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
            assert list(map(rows, loaded.certificates)) == \
                list(map(rows, basis.certificates))
        assert any(s_parts(c) for c in loaded.certificates)

    def test_round_trip_of_every_target_to_index_6(self, tmp_path):
        # the same certificates, in order: the form, n, den and the S rows
        # with their monomials and numerators in the construction's order;
        # every n is the target's, the Delta power of its monomial images
        store = DiskStore(str(tmp_path))
        with_s = 0
        for m in range(1, 7):
            for k in profile_weights(m):
                basis = jacobi_basis(k, m)
                n = _lifted_columns(
                    enumerate_monomials(ab, basis.target))[2]
                store.save(k, m, basis)
                loaded = store.load(k, m)
                assert [(c.form, c.n, c.den, c.s_rows)
                        for c in loaded.certificates] == \
                    [(c.form, n, c.den, c.s_rows)
                     for c in basis.certificates], (k, m)
                with_s += sum(bool(c.s_rows) for c in basis.certificates)
        assert with_s == 11

    def test_round_trip_of_unshared_certificates(self, tmp_path):
        # certificates read from JSON list their terms in descending
        # monomial order, not in the construction's; the entry keeps each
        # certificate's own order
        store = DiskStore(str(tmp_path))
        basis = basis_from_json(basis_to_json(jacobi_basis(-26, 8)))
        store.save(-26, 8, basis)
        loaded = store.load(-26, 8)
        assert loaded.forms == basis.forms
        assert list(map(certificate_to_json, loaded.certificates)) == \
            list(map(certificate_to_json, basis.certificates))

    def test_missing_returns_none(self, tmp_path):
        assert DiskStore(str(tmp_path)).load(2, 3) is None

    def test_corrupt_returns_none(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.save(4, 1, jacobi_basis(4, 1))
        (path,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        with open(os.path.join(tmp_path, path), "w") as fh:
            fh.write("{ not json")
        assert store.load(4, 1) is None

    def test_unreadable_returns_none(self, tmp_path):
        # a directory in the entry's place, and JSON nested past the
        # parser's recursion limit
        store = DiskStore(str(tmp_path))
        store.save(4, 1, jacobi_basis(4, 1))
        (path,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        path = os.path.join(tmp_path, path)
        with open(path, "w") as fh:
            fh.write("[" * 100000)
        assert store.load(4, 1) is None
        os.unlink(path)
        os.mkdir(path)
        assert store.load(4, 1) is None

    def test_unwritable_entry_raises_cache_error(self, tmp_path):
        store = DiskStore(str(tmp_path))
        os.mkdir(store._path(4, 1))
        with pytest.raises(CacheError, match="cannot write cache entry"):
            store.save(4, 1, jacobi_basis(4, 1))
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

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
                            Frac(Poly.gen(AB, "A1").scale(-3), 1, 0))
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


class TestSaveRefuses:
    """`save` raises CacheError and writes nothing for a basis whose entry
    `load` would miss for its shape or that format 7 cannot hold (an n
    other than the target's, an S monomial outside its ansatz): each case
    changes one certificate of J_{-26,8} that has an S part.  A
    certificate of another shape cannot be built (ValueError), so no such
    basis reaches `save`."""

    TARGET = (-26, 8)
    SHAPE_FAULTS = ("zero_s_numerator", "s_monomial_twice", "s_power_zero",
                    "s_power_twice", "den_zero", "den_negative", "n_negative")

    def changed(self, fault):
        basis = jacobi_basis(*self.TARGET)
        certs = list(basis.certificates)
        i = next(i for i, c in enumerate(certs) if c.s_rows)
        cert = certs[i]
        (l, mons, nums), = cert.s_rows
        n, den, s_rows = cert.n, cert.den, cert.s_rows
        if fault == "zero_s_numerator":
            s_rows = ((l, mons, [0, *nums[1:]]),)
        elif fault == "s_monomial_twice":
            s_rows = ((l, mons + mons[:1], nums + nums[:1]),)
        elif fault in ("s_power_above_index", "s_power_zero"):
            s_rows = ((2 if fault == "s_power_above_index" else 0, mons,
                       nums),)
        elif fault == "s_power_twice":
            s_rows = s_rows * 2
        elif fault in ("den_zero", "den_negative"):
            den = 0 if fault == "den_zero" else -den
        elif fault == "n_negative":
            n = -1
        elif fault == "n_below_the_forms":
            n = int_image(cert.form)[3] - 1
        elif fault == "n_raised":
            n += 1
        elif fault == "s_monomial_outside":
            # E6 (the first of S) once more: another bidegree
            s_rows = ((l, [(mons[0][0] + 1,) + mons[0][1:], *mons[1:]],
                       nums),)
        certs[i] = Certificate(cert.form, n, den, s_rows)
        return JacobiBasis(basis.target, certs)

    @pytest.mark.parametrize("fault", [
        "zero_s_numerator", "s_monomial_twice", "s_power_above_index",
        "s_power_zero", "s_power_twice", "den_zero", "den_negative",
        "n_negative", "n_below_the_forms", "n_raised", "s_monomial_outside"])
    def test_refused(self, tmp_path, fault):
        store = DiskStore(str(tmp_path))
        with pytest.raises(ValueError if fault in self.SHAPE_FAULTS
                           else CacheError):
            store.save(*self.TARGET, self.changed(fault))
        assert os.listdir(tmp_path) == []

    def test_certificates_of_certify_refused(self, tmp_path):
        # `certify` cancels Delta as far as each form's image goes: four
        # of the twelve forms at n = 5, below the target's 6
        basis = jacobi_basis(*self.TARGET)
        certs = [certify(f) for f in basis.forms]
        assert [c.n for c in certs].count(5) == 4
        assert {c.n for c in basis.certificates} == {6}
        store = DiskStore(str(tmp_path))
        with pytest.raises(CacheError, match="Delta power 5"):
            store.save(*self.TARGET, JacobiBasis(basis.target, certs))
        assert os.listdir(tmp_path) == []


def v1_document(basis):
    """The entry that format 1 wrote: compact "num/den" terms."""
    return {"forms": [poly_to_compact(f) for f in basis.forms],
            "certificates": [
                {"n": c.n,
                 "s_parts": [[l, poly_to_compact(s)] for l, s in s_parts(c)],
                 "remainder": poly_to_compact(remainder(c))}
                for c in basis.certificates]}


def v2_document(basis):
    """The entry that format 2 wrote for a computed basis: dense int rows
    over one list of the remainder monomials and one per S_l, each the
    union of the certificates' own lists."""
    certs = basis.certificates
    r_terms = [dict(zip(*c.r_rows()[:2])) for c in certs]
    s_terms = [{l: dict(zip(mons, nums)) for l, mons, nums in c.s_rows}
               for c in certs]
    r_mons = list(dict.fromkeys(chain.from_iterable(r_terms)))
    ls = sorted(set(chain.from_iterable(s_terms)))
    s_mons = {l: list(dict.fromkeys(chain.from_iterable(
        s.get(l, {}) for s in s_terms))) for l in ls}

    def dense(terms, mons):
        return [terms.get(mon, 0) for mon in mons]

    mons = enumerate_monomials(ab, basis.target)
    return {"forms": [dense(f.terms, mons) for f in basis.forms],
            "r_mons": r_mons,
            "s_mons": [[l, s_mons[l]] for l in ls],
            "certificates": [[c.n, c.den, dense(r, r_mons),
                              [dense(s.get(l, {}), s_mons[l]) for l in ls]]
                             for c, r, s in zip(certs, r_terms, s_terms)]}


class Entry:
    """A stored J_{-26,8}, which has forms and S_l parts, and its reload
    after an edit of the JSON document."""

    TARGET = (-26, 8)

    @pytest.fixture
    def entry(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.save(*self.TARGET, jacobi_basis(*self.TARGET))
        (name,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        path = tmp_path / name
        return store, path, json.loads(path.read_text())

    def reload(self, entry, doc):
        store, path, _ = entry
        path.write_text(json.dumps(doc))
        return store.load(*self.TARGET)


class TestFormat2(Entry):
    """The malformed-entry cases of format 2, each on the sparse rows of
    format 7: every one makes `load` miss rather than return a wrong
    basis.  A row of the wrong length reaches past its monomials, or has
    fewer values than positions: `zip` would truncate it silently."""

    def test_entry_holds_integer_rows(self, entry):
        # no n, no R and no monomial list of its own: a certificate is
        # [den, [l, positions, values], ...]
        _, _, doc = entry
        basis = jacobi_basis(*self.TARGET)
        assert sorted(doc) == ["certificates", "forms"]
        assert len(doc["forms"]) == len(doc["certificates"]) == 12
        assert [len(c) for c in doc["certificates"]] == \
            [1 + len(c.s_rows) for c in basis.certificates]
        assert list(map(rows, self.reload(entry, doc).certificates)) == \
            list(map(rows, basis.certificates))

    def test_digest_names_the_format(self, tmp_path, monkeypatch):
        store = DiskStore(str(tmp_path))
        digest = store._digest(*self.TARGET)
        monkeypatch.setattr(cache, "CACHE_FORMAT", 1)
        assert store._digest(*self.TARGET) != digest

    @pytest.mark.parametrize("where", ["form", "s_part"])
    @pytest.mark.parametrize("change", ["append", "pop"])
    def test_row_of_wrong_length(self, entry, where, change):
        doc = entry[2]
        positions, values = sparse_row(doc, where)
        if change == "append":
            positions.append(row_length(doc, where))
            values.append(1)
        else:
            values.pop()
        assert self.reload(entry, doc) is None

    @pytest.mark.parametrize("value", ["1", 1.0, True, None, [1]])
    @pytest.mark.parametrize("where", ["form", "numerator", "den", "l"])
    def test_entry_not_an_int(self, entry, where, value):
        # the numerator is an S_l numerator: no entry holds R; an l of
        # 1.0 or True would find the S_1 ansatz
        doc = entry[2]
        cert = with_s_part(doc)
        if where == "form":
            doc["forms"][0][1][0] = value
        elif where == "numerator":
            cert[1][2][0] = value
        elif where == "den":
            cert[0] = value
        else:
            cert[1][0] = value
        assert self.reload(entry, doc) is None

    @pytest.mark.parametrize("sign", [0, -1])
    def test_denominator_not_positive(self, entry, sign):
        # a negated den over negated numerators has the same values; a
        # zero den keeps the numerators, which may not be 0
        doc = entry[2]
        cert = with_s_part(doc)
        cert[0] *= sign
        if sign:
            cert[1][2] = [sign * a for a in cert[1][2]]
        assert self.reload(entry, doc) is None

    @pytest.mark.parametrize("key", ["forms", "certificates"])
    def test_count_mismatch(self, entry, key):
        doc = entry[2]
        doc[key].pop()
        assert self.reload(entry, doc) is None

    @pytest.mark.parametrize("l", [0, -1, "repeat"])
    def test_s_part_power_not_valid(self, entry, l):
        # the row is one over the S_1 ansatz, so only the l is wrong: no
        # S_l ansatz at l < 1, and the l strictly ascend
        doc = entry[2]
        cert = with_s_part(doc)
        if l == "repeat":
            cert.append(cert[1])
        else:
            cert[1][0] = l
        assert self.reload(entry, doc) is None

    def test_format_1_document_misses(self, entry):
        assert self.reload(entry, v1_document(
            jacobi_basis(*self.TARGET))) is None


def sparse_rows(doc, where):
    """The [positions, values] rows of the kind `where` in `doc`: every
    form or the first S row of every certificate that has one, each
    holding the document's own position and value lists."""
    if where == "form":
        return doc["forms"]
    return [c[1][1:] for c in doc["certificates"] if len(c) > 1]


def with_s_part(doc):
    """The first certificate of `doc` with an S row, [den, [l, positions,
    values], ...]."""
    return next(c for c in doc["certificates"] if len(c) > 1)


def sparse_row(doc, where):
    """The first row of the kind `where` with two stored values or more."""
    return next(row for row in sparse_rows(doc, where) if len(row[0]) >= 2)


def row_length(doc, where):
    """The number of monomials that a row of the kind `where` spans: the
    target's, or those of S_1's ansatz, at weight k + 12n - 12 and index
    m - 5 with J_{-26,8}'s n = 6."""
    k, m = Entry.TARGET
    if where == "form":
        return len(enumerate_monomials(ab, BiDegree(k, m)))
    return len(enumerate_monomials(S_ALPHABET, BiDegree(k + 60, m - 5)))


class TestSparseRows(Entry):
    """A format-7 row is [positions, values]: nonzero int values at
    distinct int positions within its monomials, in any order.  Each way
    to break that makes `load` miss."""

    def test_rows_are_sparse(self, entry):
        doc = entry[2]
        for where in ("form", "s_part"):
            length = row_length(doc, where)
            for positions, values in sparse_rows(doc, where):
                assert len(positions) == len(values) and all(values)
                assert len(set(positions)) == len(positions)
                assert all(0 <= i < length for i in positions)

    @pytest.mark.parametrize("fault", ["past_end", "negative", "repeated",
                                       "zero", "more_values", "bool"])
    @pytest.mark.parametrize("where", ["form", "s_part"])
    def test_malformed_row(self, entry, where, fault):
        doc = entry[2]
        positions, values = sparse_row(doc, where)
        if fault == "past_end":
            positions[-1] = row_length(doc, where)
        elif fault == "negative":
            positions[0] = -1
        elif fault == "repeated":
            positions[1] = positions[0]
        elif fault == "zero":
            values[0] = 0
        elif fault == "more_values":
            values.append(values[0])
        else:
            values[0] = bool(values[0])
        assert self.reload(entry, doc) is None

    @pytest.mark.parametrize("pair", [[], [[0]], [[0], [1], [2]], {}, 7])
    def test_row_not_a_pair(self, entry, pair):
        doc = entry[2]
        doc["forms"][0] = pair
        assert self.reload(entry, doc) is None

    def test_format_2_entry_is_never_read(self, entry, monkeypatch):
        """Format 2's to 6's entries have other names, and format 2's
        document, put where the format-7 entry goes, misses.  (A format-4
        document would miss too: its certificate rows hold R.  Format 5
        had format 6's layout, but a den over R as well as the S_l, and
        format 6 stored n and each entry's S monomials.)"""
        store = entry[0]
        digest = store._digest(*self.TARGET)
        assert cache.CACHE_FORMAT == 7
        for old in (2, 3, 4, 5, 6):
            monkeypatch.setattr(cache, "CACHE_FORMAT", old)
            assert store._digest(*self.TARGET) != digest
        monkeypatch.undo()
        assert self.reload(entry, v2_document(
            jacobi_basis(*self.TARGET))) is None


class TestNotABasis(Entry):
    """Forms that `jacobi_basis` never builds: each is primitive, with a
    positive coefficient at its lead (its smallest position), the leads
    strictly ascending and no form nonzero at another form's lead; and
    no S_l with 5l above the index.  Each entry breaks one rule, and
    `load` misses it rather than return a set that is not the basis."""

    def test_stored_basis_meets_every_rule(self, entry):
        forms = entry[2]["forms"]
        leads = [min(positions) for positions, _ in forms]
        assert leads == sorted(set(leads))
        for positions, values in forms:
            assert math.gcd(*values) == 1
            assert values[positions.index(min(positions))] > 0
            assert set(leads) & set(positions) == {min(positions)}

    def append_form(self, doc, row, cert):
        doc["forms"].append(row)
        doc["certificates"].append(cert)

    def test_zero_form(self, entry):
        # an all-zero certificate passes `certificate_identity` for it
        doc = entry[2]
        self.append_form(doc, [[], []], [1])
        assert certificate_identity(Poly.zero(ab), Certificate(
            Poly.zero(ab), 0, 1, ()))
        assert self.reload(entry, doc) is None

    @pytest.mark.parametrize("order", ["repeated", "swapped"])
    def test_leads_not_ascending(self, entry, order):
        doc = entry[2]
        if order == "repeated":
            self.append_form(doc, doc["forms"][0], doc["certificates"][0])
        else:
            for key in ("forms", "certificates"):
                doc[key][:2] = doc[key][1::-1]
        assert self.reload(entry, doc) is None

    def test_nonzero_at_another_lead(self, entry):
        # the term goes in at its ascending place, which format 3 took too
        doc = entry[2]
        terms = sorted([*zip(*doc["forms"][0]), (min(doc["forms"][1][0]), 1)])
        doc["forms"][0] = [list(part) for part in zip(*terms)]
        assert self.reload(entry, doc) is None

    def test_lead_not_positive(self, entry):
        doc = entry[2]
        doc["forms"][0][1] = [-x for x in doc["forms"][0][1]]
        assert self.reload(entry, doc) is None

    def test_common_factor(self, entry):
        doc = entry[2]
        doc["forms"][0][1] = [2 * x for x in doc["forms"][0][1]]
        assert self.reload(entry, doc) is None

    def test_s_part_power_above_index(self, entry):
        # index 8 takes S_1 only, and S_2's ansatz is empty; l = 2 is
        # still ascending from 1
        doc = entry[2]
        assert [row[0] for c in doc["certificates"] for row in c[1:]] \
            == [1] * 4
        with_s_part(doc)[1][0] = 2
        assert self.reload(entry, doc) is None


class TestWitnessVerified(Entry):
    """`load` runs the identity on every certificate with an S part, so
    a stored den or S numerator that is wrong makes it miss, though the
    shape of the witness holds.  Certificate 7 of J_{-26,8} has an S_1
    part over den 373248 with odd numerators, so neither den 1 nor den
    doubled shares a factor with them."""

    @pytest.mark.parametrize("change", ["den_one", "den_doubled",
                                        "numerator_up"])
    def test_corrupted_witness_misses(self, entry, change):
        doc = entry[2]
        cert = doc["certificates"][7]
        assert len(cert) == 2 and cert[0] == 373248
        if change == "den_one":
            cert[0] = 1
        elif change == "den_doubled":
            cert[0] *= 2
        else:
            cert[1][2][0] += 1
        assert self.reload(entry, doc) is None

    def test_changed_form_coefficient_misses(self, entry, monkeypatch):
        """Form 7's coefficient at its last position, not its lead, plus
        1: the entry keeps its shape, as it loads with the identity
        patched out, and the identity makes the load miss."""
        doc = entry[2]
        positions, values = doc["forms"][7]
        assert len(doc["certificates"][7]) == 2
        values[positions.index(max(positions))] += 1
        assert self.reload(entry, doc) is None
        monkeypatch.setattr(cache, "certificate_identity",
                            lambda form, cert: True)
        assert self.reload(entry, doc) is not None

    def test_only_certificates_with_s_parts_run(self, entry, monkeypatch):
        """Of the twelve certificates, the four with an S part are
        checked, and the entry loads."""
        checked = []
        monkeypatch.setattr(cache, "certificate_identity",
                            lambda form, cert: checked.append(cert)
                            or certificate_identity(form, cert))
        assert self.reload(entry, entry[2]) is not None
        assert [bool(c.s_rows) for c in checked] == [True] * 4
